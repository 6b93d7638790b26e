"""Teacher orchestration: tool runner, phase functions, and full sessions."""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from functools import partial
import json
import logging
import random
import sys
import threading
import time

import pytest

from recteacher.corpus import Corpus, Interaction, ItemMeta, UserMeta
from recteacher.errors import (
    PipelineError,
    ReplyParseError,
    SessionError,
)
from recteacher.evaluate import EvalInstance
from recteacher.gateway import ChatReply, Gateway, GatewayConfig, ScriptBackend
from recteacher.graph import build_graph
from recteacher.oracle import OracleBackend
from recteacher.tags import ToolCall, decode_tool_calls, tagged_bodies
from recteacher.teacher import (
    KIND_PHASE,
    KIND_TAG,
    MISS_FALLBACK,
    Phase,
    PhaseRecord,
    SessionLog,
    SubtaskKind,
    TeacherConfig,
    TeacherContext,
    ToolRunner,
    _REASK_TEXT,
    _turn,
    build_context,
    execute_subtask,
    plan,
    rank,
    reflect,
    repair_ranking,
    run_teacher,
)
from recteacher import prompts
from recteacher.rewards import format_reward
from recteacher.trajectory import parse, serialize
from recteacher.util import read_jsonl
from recteacher.verbalize import Evidence, EvidenceCache, verbalize_key

CACHED_TEXT = "cached neighbor preferences"


def make_cache(*anchors):
    cache = EvidenceCache()
    for tool, anchor in anchors:
        cache.put(Evidence(ToolCall(tool, anchor), CACHED_TEXT, (), 0))
    return cache


def make_context(user="u1", candidates=("c1", "c2", "c3")):
    prompt = prompts.render_instance_prompt(
        user, {"age": "30"}, "a long view of the user",
        ["item_id: h1 | title: Past Pick"],
        [f"item_id: {c} | title: T{c}" for c in candidates],
    )
    return TeacherContext(user=user, candidates=tuple(candidates), prompt=prompt)


def scripted_gateway(*replies):
    backend = ScriptBackend(list(replies))
    return backend, Gateway(backend, GatewayConfig(max_parallel=1), sleep=lambda s: None)


def oracle_gateway(ground_truth=None, fail_reflection=False):
    backend = OracleBackend(ground_truth=ground_truth, fail_reflection=fail_reflection)
    return backend, Gateway(backend, GatewayConfig(max_parallel=1), sleep=lambda s: None)


def tool_call(name="UserCF", **arguments):
    return f"<tool_call>{json.dumps({'name': name, 'arguments': arguments})}</tool_call>"


def idle_gateway():
    """A gateway for tool calls that must send nothing: any send exhausts its empty script."""
    return Gateway(ScriptBackend([]), GatewayConfig(max_parallel=1), sleep=lambda s: None)


# ---------------------------------------------------------------- ToolRunner

def test_tool_runner_cache_hit():
    runner = ToolRunner(make_cache(("UserCF", "u1")))
    assert runner.run(ToolCall("UserCF", "u1"), idle_gateway()) == CACHED_TEXT


def test_tool_runner_miss_without_a_graph_is_an_error():
    runner = ToolRunner(make_cache())
    with pytest.raises(PipelineError, match="no cached ItemCF evidence for 'nowhere', and no graph"):
        runner.run(ToolCall("ItemCF", "nowhere"), idle_gateway())


def test_a_decoded_call_is_its_evidence_key():
    reply = "Looking up the user.\n" + tool_call("UserCF", user_id="u1")
    (call,) = decode_tool_calls(tagged_bodies(reply, "tool_call")[0])
    assert call == ToolCall("UserCF", "u1")
    assert hash(call) == hash(ToolCall("UserCF", "u1"))
    cache = make_cache(("UserCF", "u1"), ("ItemCF", "u1"))
    assert cache.lookup(call) == Evidence(ToolCall("UserCF", "u1"), CACHED_TEXT, (), 0)


def small_corpus():
    return Corpus(
        users={u: UserMeta(user=u) for u in "AB"},
        items={i: ItemMeta(item=i, title=i.upper()) for i in "xy"},
        sequences={
            "A": [Interaction("A", "x", 1), Interaction("A", "y", 2)],
            "B": [Interaction("B", "x", 3)],
        },
    )


def filler(corpus):
    """The on-demand fill run-teacher builds: verbalize a key over the corpus graph."""
    return partial(verbalize_key, build_graph(corpus), corpus)


def test_tool_runner_on_demand_verbalizes_and_caches():
    corpus = small_corpus()
    backend, gateway = scripted_gateway("here it is\n<Answer>fresh evidence about x</Answer>")
    runner = ToolRunner(make_cache(), filler(corpus))
    call = ToolCall("ItemCF", "x")
    assert runner.run(call, gateway) == "fresh evidence about x"
    assert backend.sends == 1
    assert runner.run(call, gateway) == "fresh evidence about x"  # second hit served from cache
    assert backend.sends == 1
    # anchors outside the graph still fall back without a gateway call
    assert runner.run(ToolCall("ItemCF", "zz"), gateway) == MISS_FALLBACK
    assert runner.run(ToolCall("UserCF", "nobody"), gateway) == MISS_FALLBACK
    assert backend.sends == 1


def session_with(*calls):
    events = tuple((call, "served") for call in calls)
    record = PhaseRecord(phase=Phase.RECOMMEND, tool_events=events)
    return SessionLog(user="A", candidates=("c",), phases=(record,), final_ranking=("c",))


def test_tool_runner_fills_a_shared_miss_once(tmp_path):
    lock, missed, both_missed = threading.Lock(), set(), threading.Event()

    class MissRecordingCache(EvidenceCache):
        def lookup(self, key):
            found = super().lookup(key)
            if found is None:
                with lock:
                    missed.add(threading.get_ident())
                    if len(missed) == 2:
                        both_missed.set()
            return found

    def blocking_reply(_request, _index):
        # hold the only fill until the second thread has missed the cache too
        assert both_missed.wait(timeout=10)
        return "<Answer>shared evidence about x</Answer>"

    corpus = small_corpus()
    backend = ScriptBackend([blocking_reply])  # a second send would exhaust the script
    gateway = Gateway(backend, GatewayConfig(max_parallel=2), sleep=lambda s: None)
    path = tmp_path / "cache.jsonl"
    runner = ToolRunner(MissRecordingCache(path=path), filler(corpus))
    call = ToolCall("ItemCF", "x")
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(runner.run, call, gateway) for _ in range(2)]
        texts = [future.result(timeout=10) for future in futures]
    assert texts == ["shared evidence about x"] * 2
    assert backend.sends == 1
    assert len(missed) == 2
    assert not path.exists()  # served from memory, not yet written

    runner.persist(session_with(call, ToolCall("ItemCF", "zz"), call))
    runner.persist(session_with(call))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["anchor"] for line in lines] == ["x"]


def test_tool_runner_writes_each_named_fill_once_in_named_order(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = EvidenceCache(path)
    cache.put(Evidence(ToolCall("ItemCF", "w"), "about w", (), 0))
    runner = ToolRunner(cache, lambda key, _gateway: Evidence(key, f"about {key.anchor}", ("z",), 0))
    x, a = ToolCall("ItemCF", "x"), ToolCall("UserCF", "A")
    assert runner.run(x, idle_gateway()) == "about x"
    assert runner.run(a, idle_gateway()) == "about A"
    # served before it is written
    assert [record["anchor"] for _, record in read_jsonl(path)] == ["w"]

    # unknown and already-written keys are skipped; each fill is written once
    runner.persist(session_with(a, ToolCall("ItemCF", "nowhere"),
                                ToolCall("ItemCF", "w"), a, x))
    runner.persist(session_with(x))
    assert [record["anchor"] for _, record in read_jsonl(path)] == ["w", "A", "x"]
    assert (EvidenceCache.load(path).lookup(ToolCall("UserCF", "A"))
            == Evidence(ToolCall("UserCF", "A"), "about A", ("z",), 0))


def test_tool_runner_concurrent_fills_match_a_serial_run(tmp_path):
    rng = random.Random(7)
    users = [f"u{n}" for n in range(12)]
    items = [f"i{n}" for n in range(16)]
    corpus = Corpus(
        users={u: UserMeta(user=u) for u in users},
        items={i: ItemMeta(item=i, title=i.upper()) for i in items},
        sequences={u: [Interaction(u, item, t) for t, item in enumerate(rng.sample(items, 4))]
                   for u in users},
    )
    calls = ([ToolCall("UserCF", u) for u in users]
             + [ToolCall("ItemCF", i) for i in items])

    class SlowOracle(OracleBackend):
        def send(self, request):
            time.sleep(0.001)  # let other threads reach the same miss
            return super().send(request)

    def gateway_over(backend):
        return Gateway(backend, GatewayConfig(max_parallel=8), sleep=lambda s: None)

    serial_backend = OracleBackend()
    serial = ToolRunner(EvidenceCache(tmp_path / "serial.jsonl"), filler(corpus))
    expected = [serial.run(call, gateway_over(serial_backend)) for call in calls]
    serial.persist(session_with(*calls))

    backend = SlowOracle()
    gateway = gateway_over(backend)
    runner = ToolRunner(EvidenceCache(tmp_path / "concurrent.jsonl"), filler(corpus))

    def worker(seed):
        order = list(range(len(calls)))
        random.Random(seed).shuffle(order)
        return {index: runner.run(calls[index], gateway) for index in order}

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(worker, seed) for seed in range(8)]
            results = [future.result(timeout=30) for future in futures]
    finally:
        sys.setswitchinterval(previous)
    for result in results:
        assert [result[index] for index in range(len(calls))] == expected
    assert backend.sends == serial_backend.sends  # each key verbalized once
    runner.persist(session_with(*calls))
    assert ((tmp_path / "concurrent.jsonl").read_bytes()
            == (tmp_path / "serial.jsonl").read_bytes())


def test_tool_runner_failed_fill_is_retried():
    corpus = small_corpus()
    backend, gateway = scripted_gateway("no envelope", "<Answer>second try</Answer>")
    runner = ToolRunner(make_cache(), filler(corpus))
    call = ToolCall("ItemCF", "x")
    with pytest.raises(ReplyParseError):
        runner.run(call, gateway)
    assert runner.run(call, gateway) == "second try"
    assert backend.sends == 2


# ---------------------------------------------------------------------- plan

def test_plan_happy_path():
    reply = 'Two lenses suffice here.\n<JSON>["User_Profile_Summary", "Recent_Interest_Analysis"]</JSON>'
    backend, gateway = scripted_gateway(reply)
    record, kinds = plan(make_context(), gateway)
    assert kinds == (SubtaskKind.USER_PROFILE, SubtaskKind.RECENT)
    assert record.phase is Phase.PLAN
    assert record.thinking == "Two lenses suffice here."
    assert record.payload == '["User_Profile_Summary", "Recent_Interest_Analysis"]'
    assert backend.sends == 1


def test_plan_reasks_once_then_succeeds():
    backend, gateway = scripted_gateway(
        "no payload at all",
        '<JSON>["Historical_Interest_Analysis"]</JSON>',
    )
    _, kinds = plan(make_context(), gateway)
    assert kinds == (SubtaskKind.HISTORICAL,)
    assert backend.sends == 2
    retry = backend.requests[1].messages
    assert retry[-2]["role"] == "assistant"
    assert "could not be parsed" in retry[-1]["content"]


PLAN_REJECTS = (
    "no payload",
    "<JSON>not json</JSON>",
    '<JSON>{"a": 1}</JSON>',
    "<JSON>[]</JSON>",
    '<JSON>["Psychic_Agent"]</JSON>',
    '<JSON>["User_Profile_Summary", "User_Profile_Summary"]</JSON>',
)


@pytest.mark.parametrize("bad", PLAN_REJECTS)
def test_plan_rejects_after_two_bad_replies(bad):
    backend, gateway = scripted_gateway(bad, bad)
    with pytest.raises(SessionError) as excinfo:
        plan(make_context(), gateway)
    assert excinfo.value.phase == "plan"
    assert isinstance(excinfo.value.cause, ReplyParseError)
    assert backend.sends == 2


# ----------------------------------------------------------- execute_subtask

def test_execute_subtask_tool_loop():
    backend, gateway = scripted_gateway(
        f"Need evidence.\n{tool_call(user_id='u1')}",
        'Got it.\n<JSON>["conclusion"]</JSON>',
    )
    runner = ToolRunner(make_cache(("UserCF", "u1")))
    record = execute_subtask(SubtaskKind.USER_PROFILE, make_context(), runner, gateway)
    assert record.phase is Phase.USER_PROFILE
    assert record.kind is SubtaskKind.USER_PROFILE
    assert record.thinking == "Need evidence.\nGot it."
    assert record.payload == '["conclusion"]'
    assert record.tool_events == ((ToolCall("UserCF", "u1"), CACHED_TEXT),)

    second = backend.requests[1].messages
    assert [m["role"] for m in second] == ["system", "user", "assistant", "tool"]
    assert second[-1]["content"].startswith("<tool_response>")
    assert CACHED_TEXT in second[-1]["content"]


def test_execute_subtask_two_calls_in_one_block():
    block = ('<tool_call>'
             '{"name": "UserCF", "arguments": {"user_id": "u1"}}\n'
             '{"name": "ItemCF", "arguments": {"item_id": "i9"}}'
             '</tool_call>')
    backend, gateway = scripted_gateway(block, '<JSON>["done"]</JSON>')
    runner = ToolRunner(make_cache(("UserCF", "u1"), ("ItemCF", "i9")))
    record = execute_subtask(SubtaskKind.RECENT, make_context(), runner, gateway)
    assert [call.name for call, _ in record.tool_events] == ["UserCF", "ItemCF"]
    assert [result for _, result in record.tool_events] == [CACHED_TEXT] * 2


def test_execute_subtask_round_budget_stops_tool_loop():
    reply = f"{tool_call(user_id='u1')}\n<JSON>[\"fallback conclusion\"]</JSON>"
    backend, gateway = scripted_gateway(reply)
    runner = ToolRunner(make_cache(("UserCF", "u1")))
    record = execute_subtask(
        SubtaskKind.HISTORICAL, make_context(), runner, gateway,
        config=TeacherConfig(max_tool_rounds=1),
    )
    assert record.tool_events == ()
    assert record.payload == '["fallback conclusion"]'
    assert backend.sends == 1


def test_execute_subtask_missing_payload():
    backend, gateway = scripted_gateway(tool_call(user_id="u1"), tool_call(user_id="u1"))
    runner = ToolRunner(make_cache(("UserCF", "u1")))
    with pytest.raises(SessionError) as excinfo:
        execute_subtask(
            SubtaskKind.DIVERGENCE, make_context(), runner, gateway,
            config=TeacherConfig(max_tool_rounds=2),
        )
    assert excinfo.value.phase == "interest_divergence"
    assert isinstance(excinfo.value.cause, ReplyParseError)
    assert backend.sends == 2


@pytest.mark.parametrize("bad", [
    "<JSON>[]</JSON>",
    '<JSON>{"conclusion": "x"}</JSON>',
    '<JSON>["fine", ""]</JSON>',
    '<JSON>["fine", 3]</JSON>',
])
def test_execute_subtask_rejects_a_payload_that_is_no_list_of_conclusions(bad):
    backend, gateway = scripted_gateway(bad)
    with pytest.raises(SessionError) as excinfo:
        execute_subtask(SubtaskKind.RECENT, make_context(), ToolRunner(make_cache()), gateway)
    assert excinfo.value.phase == "recent_analysis"
    assert isinstance(excinfo.value.cause, ReplyParseError)
    assert backend.sends == 1  # analysis agents get no re-ask


def test_execute_subtask_suggestion_marks_correction():
    backend, gateway = scripted_gateway('Reworked.\n<JSON>["fixed"]</JSON>')
    runner = ToolRunner(make_cache())
    record = execute_subtask(
        SubtaskKind.DIVERGENCE, make_context(), runner, gateway,
        suggestion="lean on the recent window",
    )
    assert record.phase is Phase.CORRECTION
    assert record.kind is SubtaskKind.DIVERGENCE
    prompt = backend.requests[0].messages[1]["content"]
    assert "# Correction Suggestion\nlean on the recent window" in prompt


# ------------------------------------------------------------------- reflect

def test_reflect_pass_verdict():
    backend, gateway = scripted_gateway('All consistent.\n<JSON>{"correct": "yes"}</JSON>')
    outputs = [
        PhaseRecord(phase=Phase.USER_PROFILE, payload='["p"]', kind=SubtaskKind.USER_PROFILE),
        PhaseRecord(phase=Phase.CORRECTION, payload='["d"]', kind=SubtaskKind.DIVERGENCE),
    ]
    record, problems = reflect(make_context(), outputs, gateway)
    assert problems == ()
    assert record.phase is Phase.REFLECTION

    shown = backend.requests[0].messages[1]["content"]
    assert "# Preceding Agent Outputs" in shown
    assert "## User_Profile_Summary" in shown
    assert "## Interest_Divergence_Reasoning (corrected)" in shown
    assert '<JSON>["p"]</JSON>' in shown


def test_reflect_fail_verdict_dedupes_agents():
    payload = json.dumps({
        "correct": "no",
        "problematic_agent": [
            {"agent_name": "Interest_Divergence_Reasoning", "suggestion": "first take"},
            {"agent_name": "Recent_Interest_Analysis", "suggestion": "narrow the window"},
            {"agent_name": "Interest_Divergence_Reasoning", "suggestion": "second take"},
        ],
    })
    _, gateway = scripted_gateway(f"<JSON>{payload}</JSON>")
    _, problems = reflect(make_context(), [], gateway)
    assert [(p.kind, p.suggestion) for p in problems] == [
        (SubtaskKind.DIVERGENCE, "first take"),
        (SubtaskKind.RECENT, "narrow the window"),
    ]


VERDICT_REJECTS = (
    "no payload",
    "<JSON>not json</JSON>",
    "<JSON>[1]</JSON>",
    '<JSON>{"correct": "maybe"}</JSON>',
    '<JSON>{"correct": "yes", "problematic_agent": [{"agent_name": "Recent_Interest_Analysis", "suggestion": "s"}]}</JSON>',
    '<JSON>{"correct": "no"}</JSON>',
    '<JSON>{"correct": "no", "problematic_agent": []}</JSON>',
    '<JSON>{"correct": "no", "problematic_agent": ["x"]}</JSON>',
    '<JSON>{"correct": "no", "problematic_agent": [{"agent_name": "Psychic", "suggestion": "s"}]}</JSON>',
    '<JSON>{"correct": "no", "problematic_agent": [{"agent_name": "Recent_Interest_Analysis"}]}</JSON>',
)


@pytest.mark.parametrize("bad", VERDICT_REJECTS)
def test_reflect_rejects_malformed(bad):
    _, gateway = scripted_gateway(bad)
    with pytest.raises(SessionError) as excinfo:
        reflect(make_context(), [], gateway)
    assert excinfo.value.phase == "reflection"
    assert isinstance(excinfo.value.cause, ReplyParseError)


# ---------------------------------------------------------------------- rank

def test_repair_ranking():
    candidates = ["c1", "c2", "c3"]
    assert repair_ranking(["c2", "foreign", "c2", "c1"], candidates) == ["c2", "c1", "c3"]
    assert repair_ranking([], candidates) == candidates
    assert repair_ranking(["c3", "c2", "c1"], candidates) == ["c3", "c2", "c1"]
    assert repair_ranking(["c3"], candidates) == ["c3", "c1", "c2"]


def test_rank_without_tools():
    backend, gateway = scripted_gateway('By overall fit.\n<JSON>["c2", "c1", "c3"]</JSON>')
    record, ranking = rank(make_context(), [], gateway)
    assert ranking == ["c2", "c1", "c3"]
    assert record.phase is Phase.RECOMMEND
    assert record.payload == '["c2", "c1", "c3"]'
    assert record.thinking == "By overall fit."
    assert backend.sends == 1


def test_rank_with_tool_loop():
    backend, gateway = scripted_gateway(
        f"Checking the anchor first.\n{tool_call(user_id='u1')}",
        '<JSON>["c3", "c2", "c1"]</JSON>',
    )
    runner = ToolRunner(make_cache(("UserCF", "u1")))
    record, ranking = rank(make_context(), [], gateway, tools=runner)
    assert ranking == ["c3", "c2", "c1"]
    assert record.tool_events == ((ToolCall("UserCF", "u1"), CACHED_TEXT),)
    assert backend.sends == 2


def test_rank_repairs_model_output():
    _, gateway = scripted_gateway('<JSON>["foreign", "c2", "c2"]</JSON>')
    _, ranking = rank(make_context(), [], gateway)
    assert ranking == ["c2", "c1", "c3"]


def test_rank_reasks_once():
    backend, gateway = scripted_gateway(
        '<JSON>{"not": "a list"}</JSON>',
        '<JSON>["c1", "c2", "c3"]</JSON>',
    )
    _, ranking = rank(make_context(), [], gateway)
    assert ranking == ["c1", "c2", "c3"]
    assert backend.sends == 2
    assert "could not be parsed" in backend.requests[1].messages[-1]["content"]


def test_rank_fails_after_two_bad_replies():
    backend, gateway = scripted_gateway("nothing", "still nothing")
    with pytest.raises(SessionError, match="no <JSON> payload") as excinfo:
        rank(make_context(), [], gateway)
    assert excinfo.value.phase == "recommend"
    assert isinstance(excinfo.value.cause, ReplyParseError)
    assert backend.sends == 2


def test_rank_reasks_an_empty_list():
    backend, gateway = scripted_gateway("<JSON>[]</JSON>", '<JSON>["c3", "c1", "c2"]</JSON>')
    record, ranking = rank(make_context(), [], gateway)
    assert backend.sends == 2
    assert "payload is an empty list" in backend.requests[1].messages[-1]["content"]
    assert record.payload == '["c3", "c1", "c2"]'
    assert ranking == ["c3", "c1", "c2"]


def test_rank_reasks_a_ranking_that_names_no_candidate():
    backend, gateway = scripted_gateway('<JSON>["zzz"]</JSON>', '<JSON>["c3", "c1", "c2"]</JSON>')
    record, ranking = rank(make_context(), [], gateway)
    assert backend.sends == 2
    assert "payload names no candidate" in backend.requests[1].messages[-1]["content"]
    assert record.payload == '["c3", "c1", "c2"]'
    assert ranking == ["c3", "c1", "c2"]

    backend, gateway = scripted_gateway('<JSON>["zzz"]</JSON>', '<JSON>["zzz"]</JSON>')
    with pytest.raises(SessionError, match="payload names no candidate") as excinfo:
        rank(make_context(), [], gateway)
    assert excinfo.value.phase == "recommend"
    assert backend.sends == 2


def test_rank_names_a_null_payload():
    # JSON null decodes to None: a payload, but not a list
    backend, gateway = scripted_gateway("<JSON>null</JSON>", "<JSON>null</JSON>")
    with pytest.raises(SessionError, match="payload is not a list"):
        rank(make_context(), [], gateway)
    assert "payload is not a list" in backend.requests[1].messages[-1]["content"]


@pytest.mark.parametrize("ask,accepted", [
    (lambda gateway: plan(make_context(), gateway)[0], '["Historical_Interest_Analysis"]'),
    (lambda gateway: rank(make_context(), [], gateway)[0], '["c1", "c2", "c3"]'),
], ids=["plan", "rank"])
def test_a_reasked_record_keeps_only_the_accepted_reply(ask, accepted):
    backend, gateway = scripted_gateway(
        "Rejected reasoning.\n<JSON>null</JSON>",
        f"Accepted reasoning.\n<JSON>{accepted}</JSON>",
    )
    record = ask(gateway)
    assert record.thinking == "Accepted reasoning."
    assert record.payload == accepted
    assert backend.sends == 2


def test_a_ranker_reasked_after_a_tool_round_answers_no_more_tool_calls():
    rejected = "Ranked by hunch.\n<JSON>null</JSON>"
    backend, gateway = scripted_gateway(
        f"Checking the anchor first.\n{tool_call(user_id='u1')}",
        rejected,
        f"By the neighbours.\n{tool_call(user_id='u2')}\n<JSON>[\"c2\", \"c1\", \"c3\"]</JSON>",
    )
    runner = ToolRunner(make_cache(("UserCF", "u1")))
    # rounds to spare: only the re-ask, not the budget, leaves the last <tool_call> unanswered
    config = TeacherConfig(max_tool_rounds=5)
    record, ranking = rank(make_context(), [], gateway, config, tools=runner)

    assert [request.origin.send for request in backend.requests] == [0, 1, 2]
    reask = backend.requests[2].messages
    assert [m["role"] for m in reask] == ["system", "user", "assistant", "tool", "assistant", "user"]
    assert reask[-2] == {"role": "assistant", "content": rejected}
    assert reask[-1] == {"role": "user",
                         "content": _REASK_TEXT.format(reason="payload is not a list")}
    # the re-asked reply's <tool_call> goes unanswered: no fourth send, no second event
    assert backend.sends == 3
    assert record.tool_events == ((ToolCall("UserCF", "u1"), CACHED_TEXT),)
    assert record.thinking == "Checking the anchor first.\nBy the neighbours."
    assert ranking == ["c2", "c1", "c3"]


# --------------------------------------------------------------- run_teacher

def test_run_teacher_happy_session():
    context = make_context(user="u7", candidates=("c1", "c2", "c3", "c4"))
    backend, gateway = oracle_gateway(ground_truth={"u7": "c3"})
    runner = ToolRunner(make_cache(("UserCF", "u7")))
    log = run_teacher(context, TeacherConfig(), gateway, runner)

    assert [p.phase for p in log.phases] == [
        Phase.PLAN, Phase.USER_PROFILE, Phase.HISTORICAL, Phase.RECENT,
        Phase.DIVERGENCE, Phase.REFLECTION, Phase.RECOMMEND,
    ]
    # 1 plan + 4 subtasks x (tool round + answer) + 1 reflection + 1 ranking
    assert backend.sends == 11
    assert log.final_ranking[0] == "c3"
    assert sorted(log.final_ranking) == sorted(log.candidates)
    for record in log.phases[1:5]:
        assert record.tool_events == ((ToolCall("UserCF", "u7"), CACHED_TEXT),)
    assert json.loads(log.phases[0].payload) == [k.value for k in SubtaskKind]


def test_run_teacher_failing_reflection_adds_one_correction():
    context = make_context(user="u7", candidates=("c1", "c2", "c3", "c4"))
    backend, gateway = oracle_gateway(ground_truth={"u7": "c1"}, fail_reflection=True)
    runner = ToolRunner(make_cache(("UserCF", "u7")))
    log = run_teacher(context, TeacherConfig(), gateway, runner)

    assert [p.phase for p in log.phases] == [
        Phase.PLAN, Phase.USER_PROFILE, Phase.HISTORICAL, Phase.RECENT,
        Phase.DIVERGENCE, Phase.REFLECTION, Phase.CORRECTION, Phase.RECOMMEND,
    ]
    assert backend.sends == 13  # the correction costs two more calls
    correction = log.phases[6]
    assert correction.kind is SubtaskKind.DIVERGENCE
    assert log.final_ranking[0] == "c1"


def test_run_teacher_wraps_phase_failures():
    backend, gateway = scripted_gateway(
        '<JSON>["User_Profile_Summary"]</JSON>',
        "no structure here at all",
    )
    runner = ToolRunner(make_cache())
    with pytest.raises(SessionError) as excinfo:
        run_teacher(make_context(), TeacherConfig(), gateway, runner)
    assert excinfo.value.phase == "user_profile"
    assert isinstance(excinfo.value.cause, ReplyParseError)


PHASE_KIND = {phase: kind for kind, phase in KIND_PHASE.items()}


def first_round_kind(request):
    """The agent a subtask request is for, on its first round only; else None."""
    if request.origin.send != 0:
        return None
    return PHASE_KIND.get(request.origin.role)


def test_run_teacher_runs_the_planned_subtasks_side_by_side():
    context = make_context(user="u7", candidates=("c1", "c2", "c3", "c4"))
    serial_backend, serial_gateway = oracle_gateway(ground_truth={"u7": "c3"})
    serial = run_teacher(context, TeacherConfig(), serial_gateway,
                         ToolRunner(make_cache(("UserCF", "u7"))))

    class BarrierOracle(OracleBackend):
        """Holds each agent's first call until all four agents have sent one."""

        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self.barrier = threading.Barrier(len(SubtaskKind), timeout=10)
            self.lock = threading.Lock()
            self.active = self.peak = 0

        def send(self, request):
            with self.lock:
                self.active += 1
                self.peak = max(self.peak, self.active)
            try:
                if first_round_kind(request) is not None:
                    self.barrier.wait()
                return super().send(request)
            finally:
                with self.lock:
                    self.active -= 1

    backend = BarrierOracle(ground_truth={"u7": "c3"})
    gateway = Gateway(backend, GatewayConfig(max_parallel=4), sleep=lambda s: None)
    threads_before = set(threading.enumerate())
    log = run_teacher(context, TeacherConfig(), gateway, ToolRunner(make_cache(("UserCF", "u7"))))

    assert backend.peak == 4
    assert [p.phase for p in log.phases] == [
        Phase.PLAN, Phase.USER_PROFILE, Phase.HISTORICAL, Phase.RECENT,
        Phase.DIVERGENCE, Phase.REFLECTION, Phase.RECOMMEND,
    ]
    assert log == serial
    assert backend.sends == serial_backend.sends
    assert set(threading.enumerate()) <= threads_before


def test_above_one_slot_a_pass_submits_every_agent_at_once():
    """At two slots, each agent's first send waits until all four agents have asked the gateway."""
    context = make_context(user="u7", candidates=("c1", "c2", "c3", "c4"))
    _, serial_gateway = oracle_gateway(ground_truth={"u7": "c3"})
    serial = run_teacher(context, TeacherConfig(), serial_gateway,
                         ToolRunner(make_cache(("UserCF", "u7"))))
    lock = threading.Lock()
    entered: set[SubtaskKind] = set()
    all_entered = threading.Event()

    class EntryGateway(Gateway):
        def complete(self, request):
            kind = first_round_kind(request)
            if kind is not None:
                with lock:
                    entered.add(kind)
                    if len(entered) == len(SubtaskKind):
                        all_entered.set()
            return super().complete(request)

    class WaitingOracle(OracleBackend):
        def send(self, request):
            if first_round_kind(request) is not None:
                assert all_entered.wait(timeout=5), f"agents entered: {sorted(k.name for k in entered)}"
            return super().send(request)

    gateway = EntryGateway(WaitingOracle(ground_truth={"u7": "c3"}), GatewayConfig(max_parallel=2),
                           sleep=lambda s: None)
    log = run_teacher(context, TeacherConfig(), gateway, ToolRunner(make_cache(("UserCF", "u7"))))
    assert log == serial


def test_run_teacher_raises_the_first_failing_subtask_in_plan_order():
    recent_failed = threading.Event()

    class FailingOracle(OracleBackend):
        """The second agent fails, but only after the third one has."""

        def send(self, request):
            kind = first_round_kind(request)
            if kind is SubtaskKind.RECENT:
                recent_failed.set()
                raise RuntimeError("recent agent backend down")
            if kind is SubtaskKind.HISTORICAL:
                assert recent_failed.wait(timeout=10)
                return ChatReply(content="no structure here at all")
            return super().send(request)

    backend = FailingOracle(ground_truth={"u7": "c3"})
    gateway = Gateway(backend, GatewayConfig(max_parallel=4), sleep=lambda s: None)
    context = make_context(user="u7", candidates=("c1", "c2", "c3", "c4"))
    threads_before = set(threading.enumerate())
    with pytest.raises(SessionError) as excinfo:
        run_teacher(context, TeacherConfig(), gateway, ToolRunner(make_cache(("UserCF", "u7"))))
    assert excinfo.value.phase == Phase.HISTORICAL.value
    assert isinstance(excinfo.value.cause, ReplyParseError)
    assert recent_failed.is_set()
    assert set(threading.enumerate()) <= threads_before


# The plan names two agents, in the reverse of their kind order.
PLANNED = (SubtaskKind.DIVERGENCE, SubtaskKind.HISTORICAL)
PASS = '{"correct": "yes"}'
FAIL = json.dumps({"correct": "no", "problematic_agent": [
    {"agent_name": SubtaskKind.HISTORICAL.value, "suggestion": "look again"}]})


def two_agent_script(request, _index, verdict=PASS):
    """Replies keyed on origin. After a failing verdict a turn-0 ranker asks
    ItemCF about "i9" and then breaks its answer, so only the turn-1 ranker,
    which ranks the corrections too, can succeed."""
    origin = request.origin
    role, send = origin.role, origin.send
    if role is Phase.PLAN:
        return f"<JSON>{json.dumps([kind.value for kind in PLANNED])}</JSON>"
    if role in PHASE_KIND or isinstance(role, tuple):
        return '<JSON>["a conclusion"]</JSON>'
    if role is Phase.REFLECTION:
        return f"<JSON>{verdict}</JSON>"
    assert role is Phase.RECOMMEND
    if origin.turn == 0 and verdict != PASS:
        if send == 0:
            return '<tool_call>{"name": "ItemCF", "arguments": {"item_id": "i9"}}</tool_call>'
        return "no structure here at all"
    return '<JSON>["c3", "c1", "c2"]</JSON>'


def two_agent_session(width, verdict=PASS, tools=None):
    """The session and the origins of its sends."""
    backend = ScriptBackend([partial(two_agent_script, verdict=verdict)] * 16)
    gateway = Gateway(backend, GatewayConfig(max_parallel=width), sleep=lambda s: None)
    tools = tools or ToolRunner(make_cache(("ItemCF", "i9")))
    log = run_teacher(make_context(), TeacherConfig(), gateway, tools)
    return log, [request.origin for request in backend.requests]


def test_a_plan_keeps_its_agents_in_plan_order_and_starts_no_other():
    early, early_origins = two_agent_session(4)
    assert [(record.phase, record.kind) for record in early.phases] == [
        (Phase.PLAN, None), (Phase.DIVERGENCE, SubtaskKind.DIVERGENCE),
        (Phase.HISTORICAL, SubtaskKind.HISTORICAL), (Phase.REFLECTION, None),
        (Phase.RECOMMEND, None),
    ]
    assert early.final_ranking == ("c3", "c1", "c2")
    serial, serial_origins = two_agent_session(1)
    assert early == serial
    # a passing verdict keeps the early ranker, so both widths send the same requests
    assert Counter(early_origins) == Counter(serial_origins)
    assert not {Phase.USER_PROFILE, Phase.RECENT} & {origin.role for origin in early_origins}


def test_a_failing_verdict_discards_the_early_ranker_and_its_failure():
    early, early_origins = two_agent_session(4, FAIL)
    assert [record.phase for record in early.phases][-3:] == [
        Phase.REFLECTION, Phase.CORRECTION, Phase.RECOMMEND,
    ]
    assert early.final_ranking == ("c3", "c1", "c2")
    serial, serial_origins = two_agent_session(1, FAIL)
    assert early == serial

    def ranker_turns(origins):
        return {origin.turn for origin in origins if origin.role is Phase.RECOMMEND}

    assert ranker_turns(early_origins) == {0, 1}
    assert ranker_turns(serial_origins) == {1}


def test_a_discarded_ranker_that_failed_logs_one_warning(caplog):
    with caplog.at_level(logging.WARNING, logger="recteacher.teacher"):
        two_agent_session(4, FAIL)
    records = [r for r in caplog.records if r.name == "recteacher.teacher"]
    assert len(records) == 1 and records[0].levelno == logging.WARNING
    message = records[0].getMessage()
    assert "u1" in message and "discarded early ranker" in message
    assert "no <JSON> payload" in message
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="recteacher.teacher"):
        two_agent_session(4)  # a passing verdict keeps its ranker
        two_agent_session(1, FAIL)  # one slot starts no early ranker
    assert not [r for r in caplog.records if r.name == "recteacher.teacher"]


def counting_filler():
    """A fill that answers "filled <anchor>", and the keys it was asked for."""
    fills = []

    def fill(key, _gateway):
        fills.append(key)
        return Evidence(key, f"filled {key.anchor}", ())

    return fill, fills


I9 = ToolCall("ItemCF", "i9")


def test_a_discarded_ranker_fills_the_cache_but_writes_nothing(tmp_path):
    fill, fills = counting_filler()
    tools = ToolRunner(EvidenceCache(tmp_path / "cache.jsonl"), fill)
    log, _ = two_agent_session(4, FAIL, tools=tools)
    tools.persist(log)
    assert tools.run(I9, idle_gateway()) == "filled i9"
    assert fills == [ToolCall("ItemCF", "i9")]  # served from memory, not filled again
    assert not log.phases[-1].tool_events
    assert not (tmp_path / "cache.jsonl").exists()


def test_a_discarded_rankers_fill_is_written_by_the_next_session_that_names_it(tmp_path):
    def ranker_names_i9(request, index):
        if request.origin.role is Phase.RECOMMEND and request.origin.send == 0:
            return tool_call("ItemCF", item_id="i9")
        return two_agent_script(request, index)

    path = tmp_path / "cache.jsonl"
    fill, fills = counting_filler()
    tools = ToolRunner(EvidenceCache(path), fill)
    discarded, _ = two_agent_session(4, FAIL, tools=tools)
    tools.persist(discarded)
    assert not path.exists()

    gateway = Gateway(ScriptBackend([ranker_names_i9] * 16), GatewayConfig(max_parallel=4),
                      sleep=lambda s: None)
    later = run_teacher(make_context(), TeacherConfig(), gateway, tools)
    assert later.phases[-1].tool_events == ((I9, "filled i9"),)
    assert fills == [ToolCall("ItemCF", "i9")]  # from memory, with no new fill
    tools.persist(later)
    tools.persist(later)
    assert [record["anchor"] for _, record in read_jsonl(path)] == ["i9"]


@pytest.mark.parametrize("verdict", [PASS, FAIL], ids=["pass", "fail"])
@pytest.mark.parametrize("width", [1, 2, 4])
def test_a_session_runs_on_one_thread_pool(monkeypatch, width, verdict):
    """One pool per session above one slot, a pass and the early ranker beside it; none at one slot."""
    widths = []
    init = ThreadPoolExecutor.__init__

    def counting_init(pool, max_workers=None, *args, **kwargs):
        widths.append(max_workers)
        init(pool, max_workers, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "__init__", counting_init)
    threads_before = set(threading.enumerate())
    two_agent_session(width, verdict)
    assert widths == ([len(SubtaskKind) + 1] if width > 1 else [])
    assert set(threading.enumerate()) <= threads_before  # a discarded ranker included


def test_at_one_slot_a_failed_agent_is_the_last_send_and_the_caller_sends_it():
    senders = []

    def reply(request, _index):
        senders.append(threading.current_thread())
        if request.origin.role is Phase.PLAN:
            return f"<JSON>{json.dumps([kind.value for kind in PLANNED])}</JSON>"
        return "no structure here at all"

    backend = ScriptBackend([reply] * 16)
    gateway = Gateway(backend, GatewayConfig(max_parallel=1), sleep=lambda s: None)
    with pytest.raises(SessionError) as excinfo:
        run_teacher(make_context(), TeacherConfig(), gateway, ToolRunner(make_cache()))
    first = KIND_PHASE[PLANNED[0]]
    assert excinfo.value.phase == first.value
    assert [request.origin.role for request in backend.requests] == [Phase.PLAN, first]
    assert senders == [threading.current_thread()] * 2


def test_grammar_tags_in_thinking_are_not_recorded():
    backend, gateway = scripted_gateway(
        "Weigh </plan> closers before a stray <tool_call> opener.\n"
        '<JSON>["User_Profile_Summary"]</JSON>',
        '<JSON>["steady reader"]</JSON>',
        '<JSON>{"correct": "yes"}</JSON>',
        '<JSON>["c2", "c1", "c3"]</JSON>',
    )
    log = run_teacher(make_context(), TeacherConfig(), gateway, ToolRunner(make_cache()))
    assert log.phases[0].thinking == "Weigh  closers before a stray  opener."
    text = serialize(log)
    assert parse(text).ranking == ("c2", "c1", "c3")
    assert format_reward(text) == 1


def test_session_log_requires_permutation():
    with pytest.raises(ValueError):
        SessionLog(user="u", candidates=("a", "b"), phases=(), final_ranking=("a",))


def test_teacher_config_validation():
    with pytest.raises(ValueError):
        TeacherConfig(max_tool_rounds=0)
    with pytest.raises(ValueError):
        TeacherConfig(window_m=0)
    with pytest.raises(ValueError, match="temperature"):
        GatewayConfig(temperature=3.0)
    with pytest.raises(ValueError, match="top_p"):
        GatewayConfig(top_p=0.0)


# ------------------------------------------------------------- build_context

def test_build_context_renders_prompt_and_folds_history():
    items = {f"i{k:02d}": ItemMeta(item=f"i{k:02d}", title=f"Title {k}", attributes={"genre": "sf"})
             for k in range(25)}
    history = tuple(Interaction("u1", f"i{k:02d}", 1000 + k, rating=4.0) for k in range(5))
    corpus = Corpus(
        users={"u1": UserMeta(user="u1", attributes={"age": "30"})},
        items=items,
        sequences={"u1": list(history) + [Interaction("u1", "i05", 2000)]},
    )
    instance = EvalInstance(
        user="u1",
        history=history,
        candidates=tuple(f"i{k:02d}" for k in range(5, 25)),
        ground_truth="i05",
    )
    backend, gateway = scripted_gateway(
        "<SUMMARY>first fold</SUMMARY>",
        "<SUMMARY>older arc: steady genre fiction</SUMMARY>",
    )
    context = build_context(instance, corpus, gateway, TeacherConfig(window_m=2))
    # 5 interactions at m=2 -> 3 chunks -> 2 folds
    assert backend.sends == 2
    assert "(Value: u1)" in context.prompt
    assert "# Long-term User Behavior Summary" in context.prompt
    assert "older arc: steady genre fiction" in context.prompt
    # only the last window stays raw
    assert "item_id: i04 " in context.prompt
    assert "item_id: i03 " not in context.prompt
    assert "1. item_id: i05 | title: Title 5 | genre: sf" in context.prompt
    assert context.candidates == instance.candidates


# ----------------------------------------------------------- reply contracts

def trajectory_with(phase, payload):
    """A well-formed trajectory whose `phase` section carries `payload`; None leaves it without one.

    An analysis phase takes the user-profile slot; a correction is a divergence section.
    """
    sections = [(Phase.PLAN, '["User_Profile_Summary"]'), (Phase.USER_PROFILE, '["steady reader"]'),
                (Phase.REFLECTION, '{"correct": "yes"}'), (Phase.CORRECTION, '["revised view"]'),
                (Phase.RECOMMEND, None)]
    slot = Phase.USER_PROFILE if phase in KIND_PHASE.values() else phase
    parts = []
    for section, body in sections:
        if section is slot:
            section, body = phase, payload
        tag = KIND_TAG[SubtaskKind.DIVERGENCE] if section is Phase.CORRECTION else section.value
        lines = [f"<{tag}>"]
        if body is not None:
            lines.append(f"<JSON>{body}</JSON>")
        if section is Phase.RECOMMEND:
            lines.extend(["1. c1", "2. c2", "3. c3"])
        lines.append(f"</{tag}>")
        parts.append("\n".join(lines))
    return "\n".join(parts)


def test_a_subtask_payload_that_is_not_json_fails_its_turn_and_its_trajectory():
    backend, gateway = scripted_gateway("<JSON>not json</JSON>")
    with pytest.raises(SessionError) as excinfo:
        execute_subtask(SubtaskKind.HISTORICAL, make_context(), ToolRunner(make_cache()), gateway)
    assert excinfo.value.phase == "historical_analysis"
    assert isinstance(excinfo.value.cause, ReplyParseError)
    assert "payload is not JSON" in str(excinfo.value.cause)
    assert format_reward(trajectory_with(Phase.HISTORICAL, "not json")) == -1


# Every reply this module scripts for an agent, accepted or rejected, plus
# edge cases of the conclusion and ranking contracts; each is played to every role.
REPLIES = (
    *PLAN_REJECTS,
    *VERDICT_REJECTS,
    'Two lenses suffice here.\n<JSON>["User_Profile_Summary", "Recent_Interest_Analysis"]</JSON>',
    'Got it.\n<JSON>["conclusion"]</JSON>',
    tool_call(user_id="u1"),
    f"{tool_call(user_id='u1')}\n<JSON>[\"fallback conclusion\"]</JSON>",
    "no structure here at all",
    '<JSON>{"correct": "yes"}</JSON>',
    '<JSON>{"correct": "no", "problematic_agent": '
    '[{"agent_name": "Recent_Interest_Analysis", "suggestion": "narrow the window"}]}</JSON>',
    '<JSON>["c2", "c1", "c3"]</JSON>',
    '<JSON>["foreign", "c2", "c2"]</JSON>',
    '<JSON>{"not": "a list"}</JSON>',
    "<JSON>null</JSON>",
    '<JSON>["fine", ""]</JSON>',
    '<JSON>["fine", 3]</JSON>',
    "<JSON>[1, 2]</JSON>",
)


def turn_accepts(phase, reply):
    """Whether an agent turn of `phase` accepts `reply`, given it on every send."""
    _, gateway = scripted_gateway(reply, reply)
    kind = SubtaskKind.DIVERGENCE if phase is Phase.CORRECTION else None
    try:
        _turn(phase, make_context(), "system", "user", gateway, TeacherConfig(), kind=kind)
    except SessionError as exc:
        assert exc.phase == phase.value
        assert isinstance(exc.cause, ReplyParseError)
        return False
    return True


@pytest.mark.parametrize("phase", list(Phase), ids=lambda phase: phase.value)
def test_the_turn_accepts_exactly_the_payloads_the_format_reward_passes(phase):
    verdicts = set()
    for reply in REPLIES:
        payloads = tagged_bodies(reply, "JSON")
        payload = payloads[-1] if payloads else None
        if phase is Phase.RECOMMEND and payload is None:
            continue  # the ranking is serialized as a numbered list, so no payload is fine there
        accepted = turn_accepts(phase, reply)
        expected = format_reward(trajectory_with(phase, payload)) == 1
        if phase is Phase.RECOMMEND and expected:
            # the reward cannot see the candidates; the turn also asks that one be named
            named = {str(item) for item in json.loads(payload)}
            expected = not named.isdisjoint(make_context().candidates)
        assert accepted == expected, reply
        verdicts.add(accepted)
    assert verdicts == {True, False}
