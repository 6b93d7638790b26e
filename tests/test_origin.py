"""Every request says which agent sent it, and the mock answers by that alone.

A request's origin (role, subject, send index within the turn) is set where the
request is built. The oracle reads nothing else to pick its agent, and a script
keyed on origin gives the same replies whatever order the sends arrive in.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from recteacher import prompts
from recteacher.abstract import SUMMARIZER
from recteacher.cli import main
from recteacher.errors import ReplyParseError, SessionError
from recteacher.gateway import Gateway, GatewayConfig, ScriptBackend
from recteacher.oracle import OracleBackend
from recteacher.teacher import (
    AGENT_NAMES,
    Phase,
    TeacherConfig,
    TeacherContext,
    ToolRunner,
    run_teacher,
)
from recteacher.tags import ToolCall
from recteacher.verbalize import Evidence, EvidenceCache

from conftest import toy_chain
from test_toy_digests import DIGESTS

SYSTEM_TEMPLATES = (
    "planner.txt", "user_profile.txt", "historical_analysis.txt", "recent_analysis.txt",
    "interest_divergence.txt",
    "reflector.txt", "ranker.txt", "history_summary.txt", "item_evidence_system.txt",
    "user_evidence_system.txt",
)

FLAGGED = (Phase.RECENT, Phase.DIVERGENCE)


def teacher_argv(d, *, verbalize):
    """The toy chain under `d`; returns run-teacher's argv over its corpus and graph."""
    paths = toy_chain(d, verbalize=verbalize)
    return ["run-teacher", "--backend", "mock", "--corpus", str(paths["corpus"]),
            "--graph", str(paths["graph"])]


def test_the_mock_runs_on_reworded_system_templates(tmp_path, monkeypatch):
    original = prompts._packaged

    def reworded(name):
        text = original(name)
        if name not in SYSTEM_TEMPLATES:
            return text
        lines = text.split("\n")
        first = next(i for i, line in enumerate(lines) if line and not line.startswith("#"))
        lines[first] = "Take on the role that the sections below describe."
        return "\n".join(lines)

    monkeypatch.setattr(prompts, "_packaged", reworded)
    assert "You are a planner agent" not in prompts.planner_system()
    teacher = teacher_argv(tmp_path, verbalize=True) + [
        "--instances", str(tmp_path / "instances.jsonl"), "--cache", str(tmp_path / "cache.jsonl")]
    steps = [
        teacher + ["--out", str(tmp_path / "sessions.jsonl")],
        teacher + ["--out", str(tmp_path / "fr_sessions.jsonl"), "--fail-reflection"],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    for name in ("cache.jsonl", "sessions.jsonl", "fr_sessions.jsonl"):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == DIGESTS[name], name


def test_every_request_of_a_toy_session_has_its_own_origin(tmp_path, monkeypatch):
    teacher = teacher_argv(tmp_path, verbalize=False)
    # the longest history, so the session folds several chunks before it plans
    lines = (tmp_path / "instances.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    longest = max(records, key=lambda record: len(record["history"]))
    (tmp_path / "one.jsonl").write_text(json.dumps(longest) + "\n", encoding="utf-8")
    monkeypatch.setattr("recteacher.teacher.DEFAULT_WINDOW_M", 5)
    requests = []
    send = OracleBackend.send

    def recording(backend, request):
        requests.append(request)
        return send(backend, request)

    monkeypatch.setattr(OracleBackend, "send", recording)
    assert main(teacher + ["--parallel", "4",
                           "--instances", str(tmp_path / "one.jsonl"),
                           "--cache", str(tmp_path / "cache.jsonl"),
                           "--out", str(tmp_path / "sessions.jsonl"),
                           "--fail-reflection"]) == 0

    origins = [request.origin for request in requests]
    assert None not in origins
    assert len(set(origins)) == len(origins)
    roles = {origin.role for origin in origins}
    assert {SUMMARIZER, "UserCF", Phase.PLAN, Phase.REFLECTION, Phase.RECOMMEND} <= roles
    assert set(AGENT_NAMES) <= roles
    assert (Phase.DIVERGENCE, 1) in {(origin.role, origin.turn) for origin in origins}
    assert {origin.send for origin in origins if origin.role == SUMMARIZER} == {0, 1, 2}


def role_name(origin):
    if origin.role in AGENT_NAMES and origin.turn:  # a correction pass
        return f"correction of {AGENT_NAMES[origin.role]}"
    return origin.role.value


def origin_script(request, _index):
    """Replies chosen by origin alone; each reply's thinking names the origin it answers."""
    origin = request.origin
    role, user, send = origin.role, origin.subject, origin.send
    thinking = f"Answering {role_name(origin)} send {send} for {user}."
    if role is Phase.PLAN:
        payload = list(AGENT_NAMES.values())
    elif role in AGENT_NAMES:
        if send == 0:
            call = {"name": "UserCF", "arguments": {"user_id": user}}
            return f"{thinking}\n<tool_call>{json.dumps(call)}</tool_call>"
        payload = [f"{role_name(origin)} conclusion"]
    elif role is Phase.REFLECTION:
        payload = {"correct": "no", "problematic_agent": [
            {"agent_name": AGENT_NAMES[agent], "suggestion": f"revisit {AGENT_NAMES[agent]}"}
            for agent in FLAGGED
        ]}
    else:
        assert role is Phase.RECOMMEND
        payload = ["c4", "c2", "c3", "c1"]
    return f"{thinking}\n<JSON>{json.dumps(payload)}</JSON>"


def scripted_session(width, script=origin_script):
    prompt = "# User Information\n> user_id: User's unique identifier. (Value: u7)"
    context = TeacherContext(user="u7", candidates=("c1", "c2", "c3", "c4"), prompt=prompt)
    cache = EvidenceCache()
    cache.put(Evidence(ToolCall("UserCF", "u7"), "neighbors liked c4", ()))
    backend = ScriptBackend([script] * 32)
    gateway = Gateway(backend, GatewayConfig(max_parallel=width), sleep=lambda s: None)
    return run_teacher(context, TeacherConfig(), gateway, ToolRunner(cache))


def test_an_origin_keyed_script_gives_one_session_at_any_width():
    serial = scripted_session(1)
    assert [(record.phase, record.turn) for record in serial.phases] == [
        (Phase.PLAN, 0), (Phase.USER_PROFILE, 0), (Phase.HISTORICAL, 0), (Phase.RECENT, 0),
        (Phase.DIVERGENCE, 0), (Phase.REFLECTION, 0), (Phase.RECENT, 1), (Phase.DIVERGENCE, 1),
        (Phase.RECOMMEND, 1),
    ]
    assert serial.phases[6].payload == '["correction of Recent_Interest_Analysis conclusion"]'
    assert serial.final_ranking == ("c4", "c2", "c3", "c1")
    assert scripted_session(4) == serial


@pytest.mark.parametrize("width", [1, 4])
@pytest.mark.parametrize("role, send, turn, phase", [
    (Phase.HISTORICAL, 1, 0, "historical_analysis"),
    (Phase.REFLECTION, 0, 0, "reflection"),
    (Phase.DIVERGENCE, 1, 1, "correction"),
], ids=["historical", "reflection", "correction"])
def test_a_bad_reply_at_one_origin_fails_its_phase(role, send, turn, phase, width):
    def script(request, index):
        origin = request.origin
        if (origin.role, origin.send, origin.turn) == (role, send, turn):
            return "no structure here at all"
        return origin_script(request, index)

    with pytest.raises(SessionError) as excinfo:
        scripted_session(width, script)
    assert excinfo.value.phase == phase
    assert isinstance(excinfo.value.cause, ReplyParseError)
