"""Teacher orchestration: tool runner, phase functions, and full sessions."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
import json
import random
import sys
import threading
import time

import pytest

from recteacher.abstract import HybridHistory
from recteacher.corpus import Corpus, Interaction, ItemMeta, UserMeta
from recteacher.errors import (
    MissingAnswerTags,
    PlanParseError,
    RankParseError,
    ReflectionParseError,
    SessionError,
    SubtaskParseError,
    ToolArgumentError,
    ToolParseError,
)
from recteacher.evaluate import EvalInstance
from recteacher.gateway import ChatReply, Gateway, GatewayConfig, ScriptBackend
from recteacher.graph import build_graph
from recteacher.oracle import OracleBackend
from recteacher.tags import ToolCall
from recteacher.teacher import (
    MISS_FALLBACK,
    Phase,
    PhaseRecord,
    Problem,
    ReflectionVerdict,
    SessionLog,
    SubtaskKind,
    TeacherConfig,
    TeacherContext,
    ToolRunner,
    build_context,
    execute_subtask,
    plan,
    rank,
    reflect,
    repair_ranking,
    run_teacher,
)
from recteacher import prompts
from recteacher.verbalize import CacheMiss, Evidence, EvidenceCache, EvidenceKey

CACHED_TEXT = "cached neighbor preferences"


def make_cache(*anchors):
    cache = EvidenceCache()
    for tool, anchor in anchors:
        cache.put(Evidence(EvidenceKey(tool, anchor), CACHED_TEXT, (), 0))
    return cache


def make_context(user="u1", candidates=("c1", "c2", "c3"), ground_truth="c2"):
    prompt = prompts.render_instance_prompt(
        user, {"age": "30"}, "a long view of the user",
        ["item_id: h1 | title: Past Pick"],
        [f"item_id: {c} | title: T{c}" for c in candidates],
    )
    return TeacherContext(
        user=user,
        user_attributes={"age": "30"},
        candidates=tuple(candidates),
        hybrid=HybridHistory("a long view of the user", (), 10),
        prompt=prompt,
        ground_truth=ground_truth,
    )


def scripted_gateway(*replies):
    backend = ScriptBackend(list(replies))
    return backend, Gateway(backend, GatewayConfig(max_parallel=1), sleep=lambda s: None)


def oracle_gateway(ground_truth=None, fail_reflection=False):
    backend = OracleBackend(ground_truth=ground_truth, fail_reflection=fail_reflection)
    return backend, Gateway(backend, GatewayConfig(max_parallel=1), sleep=lambda s: None)


def tool_call(name="UserCF", **arguments):
    return f"<tool_call>{json.dumps({'name': name, 'arguments': arguments})}</tool_call>"


# ---------------------------------------------------------------- ToolRunner

def test_tool_runner_cache_hit():
    runner = ToolRunner(make_cache(("UserCF", "u1")))
    assert runner.run(ToolCall("UserCF", {"user_id": "u1"})) == CACHED_TEXT


def test_tool_runner_miss_fallback():
    runner = ToolRunner(make_cache())
    assert runner.run(ToolCall("ItemCF", {"item_id": "nowhere"})) == MISS_FALLBACK


def test_tool_runner_argument_validation():
    runner = ToolRunner(make_cache())
    with pytest.raises(ToolArgumentError):
        runner.run(ToolCall("UserCF", {"item_id": "x"}))
    with pytest.raises(ToolArgumentError):
        runner.run(ToolCall("ItemCF", {"item_id": "x", "k": "3"}))
    with pytest.raises(ToolParseError):
        runner.run(ToolCall("MatrixFactorization", {"user_id": "x"}))


def small_corpus():
    return Corpus(
        users={u: UserMeta(user=u) for u in "AB"},
        items={i: ItemMeta(item=i, title=i.upper()) for i in "xy"},
        sequences={
            "A": [Interaction("A", "x", 1), Interaction("A", "y", 2)],
            "B": [Interaction("B", "x", 3)],
        },
    )


def test_tool_runner_on_demand_verbalizes_and_caches():
    corpus = small_corpus()
    graph = build_graph(corpus)
    backend, gateway = scripted_gateway("here it is\n<Answer>fresh evidence about x</Answer>")
    runner = ToolRunner(make_cache(), graph=graph, corpus=corpus, gateway=gateway, on_demand=True)
    call = ToolCall("ItemCF", {"item_id": "x"})
    assert runner.run(call) == "fresh evidence about x"
    assert backend.sends == 1
    assert runner.run(call) == "fresh evidence about x"  # second hit served from cache
    assert backend.sends == 1
    # anchors outside the graph still fall back without a gateway call
    assert runner.run(ToolCall("ItemCF", {"item_id": "zz"})) == MISS_FALLBACK
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
            if isinstance(found, CacheMiss):
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
    runner = ToolRunner(MissRecordingCache(path=path), graph=build_graph(corpus), corpus=corpus,
                        gateway=gateway, on_demand=True)
    call = ToolCall("ItemCF", {"item_id": "x"})
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(runner.run, call) for _ in range(2)]
        texts = [future.result(timeout=10) for future in futures]
    assert texts == ["shared evidence about x"] * 2
    assert backend.sends == 1
    assert len(missed) == 2
    assert not path.exists()  # served from memory, not yet written

    runner.persist(session_with(call, ToolCall("ItemCF", {"item_id": "zz"}), call))
    runner.persist(session_with(call))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["anchor"] for line in lines] == ["x"]


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
    graph = build_graph(corpus)
    calls = ([ToolCall("UserCF", {"user_id": u}) for u in users]
             + [ToolCall("ItemCF", {"item_id": i}) for i in items])

    class SlowOracle(OracleBackend):
        def send(self, request):
            time.sleep(0.001)  # let other threads reach the same miss
            return super().send(request)

    def runner_over(backend, path):
        gateway = Gateway(backend, GatewayConfig(max_parallel=8), sleep=lambda s: None)
        return ToolRunner(EvidenceCache(path), graph=graph, corpus=corpus, gateway=gateway,
                          on_demand=True)

    serial_backend = OracleBackend()
    serial = runner_over(serial_backend, tmp_path / "serial.jsonl")
    expected = [serial.run(call) for call in calls]
    serial.persist(session_with(*calls))

    backend = SlowOracle()
    runner = runner_over(backend, tmp_path / "concurrent.jsonl")

    def worker(seed):
        order = list(range(len(calls)))
        random.Random(seed).shuffle(order)
        return {index: runner.run(calls[index]) for index in order}

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
    runner = ToolRunner(make_cache(), graph=build_graph(corpus), corpus=corpus,
                        gateway=gateway, on_demand=True)
    call = ToolCall("ItemCF", {"item_id": "x"})
    with pytest.raises(MissingAnswerTags):
        runner.run(call)
    assert runner.run(call) == "second try"
    assert backend.sends == 2


# ---------------------------------------------------------------------- plan

def test_plan_happy_path():
    reply = 'Two lenses suffice here.\n<JSON>["User_Profile_Summary", "Recent_Interest_Analysis"]</JSON>'
    backend, gateway = scripted_gateway(reply)
    result = plan(make_context(), gateway)
    assert result.kinds == (SubtaskKind.USER_PROFILE, SubtaskKind.RECENT)
    assert result.record.phase is Phase.PLAN
    assert result.record.thinking == "Two lenses suffice here."
    assert result.record.payload == '["User_Profile_Summary", "Recent_Interest_Analysis"]'
    assert backend.sends == 1


def test_plan_reasks_once_then_succeeds():
    backend, gateway = scripted_gateway(
        "no payload at all",
        '<JSON>["Historical_Interest_Analysis"]</JSON>',
    )
    result = plan(make_context(), gateway)
    assert result.kinds == (SubtaskKind.HISTORICAL,)
    assert backend.sends == 2
    retry = backend.requests[1].messages
    assert retry[-2]["role"] == "assistant"
    assert "could not be parsed" in retry[-1]["content"]


@pytest.mark.parametrize("bad", [
    "no payload",
    "<JSON>not json</JSON>",
    '<JSON>{"a": 1}</JSON>',
    "<JSON>[]</JSON>",
    '<JSON>["Psychic_Agent"]</JSON>',
    '<JSON>["User_Profile_Summary", "User_Profile_Summary"]</JSON>',
])
def test_plan_rejects_after_two_bad_replies(bad):
    backend, gateway = scripted_gateway(bad, bad)
    with pytest.raises(PlanParseError):
        plan(make_context(), gateway)
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
    assert record.tool_events == ((ToolCall("UserCF", {"user_id": "u1"}), CACHED_TEXT),)

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
    runner = ToolRunner(make_cache(("UserCF", "u1")))
    record = execute_subtask(SubtaskKind.RECENT, make_context(), runner, gateway)
    assert len(record.tool_events) == 2
    assert record.tool_events[0][1] == CACHED_TEXT
    assert record.tool_events[1][1] == MISS_FALLBACK


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
    with pytest.raises(SubtaskParseError):
        execute_subtask(
            SubtaskKind.DIVERGENCE, make_context(), runner, gateway,
            config=TeacherConfig(max_tool_rounds=2),
        )
    assert backend.sends == 2


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
    verdict = reflect(make_context(), outputs, gateway)
    assert verdict.correct is True
    assert verdict.problems == ()
    assert verdict.record.phase is Phase.REFLECTION

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
    verdict = reflect(make_context(), [], gateway)
    assert verdict.correct is False
    assert [(p.kind, p.suggestion) for p in verdict.problems] == [
        (SubtaskKind.DIVERGENCE, "first take"),
        (SubtaskKind.RECENT, "narrow the window"),
    ]


@pytest.mark.parametrize("bad", [
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
])
def test_reflect_rejects_malformed(bad):
    _, gateway = scripted_gateway(bad)
    with pytest.raises(ReflectionParseError):
        reflect(make_context(), [], gateway)


def test_reflection_verdict_validation():
    record = PhaseRecord(phase=Phase.REFLECTION)
    with pytest.raises(ValueError):
        ReflectionVerdict(correct=False, problems=(), record=record)
    with pytest.raises(ValueError):
        ReflectionVerdict(
            correct=True,
            problems=(Problem(kind=SubtaskKind.RECENT, suggestion="s"),),
            record=record,
        )


# ---------------------------------------------------------------------- rank

def test_repair_ranking():
    candidates = ["c1", "c2", "c3"]
    assert repair_ranking(["c2", "foreign", "c2", "c1"], candidates) == ["c2", "c1", "c3"]
    assert repair_ranking([], candidates) == candidates
    assert repair_ranking(["c3", "c2", "c1"], candidates) == ["c3", "c2", "c1"]
    assert repair_ranking(["c3"], candidates) == ["c3", "c1", "c2"]


def test_rank_without_tools():
    backend, gateway = scripted_gateway('By overall fit.\n<JSON>["c2", "c1", "c3"]</JSON>')
    ranking, record = rank(
        make_context(), [], gateway, config=TeacherConfig(ranker_tools=False),
    )
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
    ranking, record = rank(make_context(), [], gateway, tools=runner)
    assert ranking == ["c3", "c2", "c1"]
    assert record.tool_events == ((ToolCall("UserCF", {"user_id": "u1"}), CACHED_TEXT),)
    assert backend.sends == 2


def test_rank_repairs_model_output():
    _, gateway = scripted_gateway('<JSON>["foreign", "c2", "c2"]</JSON>')
    ranking, _ = rank(make_context(), [], gateway, config=TeacherConfig(ranker_tools=False))
    assert ranking == ["c2", "c1", "c3"]


def test_rank_reasks_once():
    backend, gateway = scripted_gateway(
        '<JSON>{"not": "a list"}</JSON>',
        '<JSON>["c1", "c2", "c3"]</JSON>',
    )
    ranking, _ = rank(make_context(), [], gateway, config=TeacherConfig(ranker_tools=False))
    assert ranking == ["c1", "c2", "c3"]
    assert backend.sends == 2
    assert "could not be parsed" in backend.requests[1].messages[-1]["content"]


def test_rank_fails_after_two_bad_replies():
    backend, gateway = scripted_gateway("nothing", "still nothing")
    with pytest.raises(RankParseError):
        rank(make_context(), [], gateway, config=TeacherConfig(ranker_tools=False))
    assert backend.sends == 2


# --------------------------------------------------------------- run_teacher

def test_run_teacher_happy_session():
    context = make_context(user="u7", candidates=("c1", "c2", "c3", "c4"), ground_truth="c3")
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
        assert record.tool_events == ((ToolCall("UserCF", {"user_id": "u7"}), CACHED_TEXT),)
    assert json.loads(log.phases[0].payload) == [k.value for k in SubtaskKind]


def test_run_teacher_failing_reflection_adds_one_correction():
    context = make_context(user="u7", candidates=("c1", "c2", "c3", "c4"), ground_truth="c1")
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
    assert isinstance(excinfo.value.cause, SubtaskParseError)


SUBTASK_SYSTEMS = {prompts.subtask_system(kind.value): kind for kind in SubtaskKind}


def first_round_kind(request):
    """The agent a subtask request is for, on its first round only; else None."""
    if any(message["role"] == "tool" for message in request.messages):
        return None
    return SUBTASK_SYSTEMS.get(request.messages[0]["content"])


def test_run_teacher_runs_the_planned_subtasks_side_by_side():
    context = make_context(user="u7", candidates=("c1", "c2", "c3", "c4"), ground_truth="c3")
    _serial_backend, serial_gateway = oracle_gateway(ground_truth={"u7": "c3"})
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
    assert backend.sends == serial_gateway.call_count == gateway.call_count
    assert set(threading.enumerate()) <= threads_before


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
    context = make_context(user="u7", candidates=("c1", "c2", "c3", "c4"), ground_truth="c3")
    threads_before = set(threading.enumerate())
    with pytest.raises(SessionError) as excinfo:
        run_teacher(context, TeacherConfig(), gateway, ToolRunner(make_cache(("UserCF", "u7"))))
    assert excinfo.value.phase == Phase.HISTORICAL.value
    assert isinstance(excinfo.value.cause, SubtaskParseError)
    assert recent_failed.is_set()
    assert set(threading.enumerate()) <= threads_before


def test_session_log_requires_permutation():
    with pytest.raises(ValueError):
        SessionLog(user="u", candidates=("a", "b"), phases=(), final_ranking=("a",))


def test_teacher_config_validation():
    with pytest.raises(ValueError):
        TeacherConfig(max_tool_rounds=0)
    with pytest.raises(ValueError):
        TeacherConfig(window_m=0)


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
    assert context.hybrid.long_term_summary == "older arc: steady genre fiction"
    assert [x.item for x in context.hybrid.recent_raw] == ["i04"]
    assert "(Value: u1)" in context.prompt
    assert "# Long-term User Behavior Summary" in context.prompt
    assert "older arc: steady genre fiction" in context.prompt
    assert "1. item_id: i05 | title: Title 5 | genre: sf" in context.prompt
    assert context.ground_truth == "i05"
    assert context.candidates == instance.candidates
