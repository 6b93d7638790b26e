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
    KIND_PHASE,
    Phase,
    SubtaskKind,
    TeacherConfig,
    TeacherContext,
    ToolRunner,
    run_teacher,
)
from recteacher.tags import ToolCall
from recteacher.verbalize import Evidence, EvidenceCache

from test_toy_digests import DIGESTS

SYSTEM_TEMPLATES = (
    "planner.txt", "profile.txt", "historical.txt", "recent.txt", "divergence.txt",
    "reflector.txt", "ranker.txt", "history_summary.txt", "item_evidence_system.txt",
    "user_evidence_system.txt",
)

PHASE_KIND = {phase: kind for kind, phase in KIND_PHASE.items()}

FLAGGED = (SubtaskKind.RECENT, SubtaskKind.DIVERGENCE)


def toy_chain(toy_files, d):
    """ingest, build-graph and make-instances over the toy corpus; returns run-teacher's argv."""
    corpus, graph = str(d / "corpus"), str(d / "graph.jsonl")
    steps = [
        ["ingest", "--users", str(toy_files["users"]), "--items", str(toy_files["items"]),
         "--reviews", str(toy_files["reviews"]), "--out", corpus],
        ["build-graph", "--corpus", corpus, "--out", graph],
        ["make-instances", "--corpus", corpus, "--scenario", "Classic",
         "--out", str(d / "instances.jsonl")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    return ["run-teacher", "--backend", "mock", "--corpus", corpus, "--graph", graph]


def test_the_mock_runs_on_reworded_system_templates(toy_files, tmp_path, monkeypatch):
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
    teacher = toy_chain(toy_files, tmp_path) + ["--instances", str(tmp_path / "instances.jsonl"),
                                               "--cache", str(tmp_path / "cache.jsonl")]
    steps = [
        ["verbalize", "--backend", "mock", "--corpus", str(tmp_path / "corpus"),
         "--graph", str(tmp_path / "graph.jsonl"), "--out", str(tmp_path / "cache.jsonl")],
        teacher + ["--out", str(tmp_path / "sessions.jsonl")],
        teacher + ["--out", str(tmp_path / "fr_sessions.jsonl"), "--fail-reflection"],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    for name in ("cache.jsonl", "sessions.jsonl", "fr_sessions.jsonl"):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == DIGESTS[name], name


def test_every_request_of_a_toy_session_has_its_own_origin(toy_files, tmp_path, monkeypatch):
    teacher = toy_chain(toy_files, tmp_path)
    # the longest history, so the session folds several chunks before it plans
    lines = (tmp_path / "instances.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    longest = max(records, key=lambda record: len(record["history"]))
    (tmp_path / "one.jsonl").write_text(json.dumps(longest) + "\n", encoding="utf-8")
    (tmp_path / "od.ini").write_text("[pipeline]\nwindow_m = 5\n", encoding="utf-8")
    requests = []
    send = OracleBackend.send

    def recording(backend, request):
        requests.append(request)
        return send(backend, request)

    monkeypatch.setattr(OracleBackend, "send", recording)
    assert main(teacher + ["--config", str(tmp_path / "od.ini"), "--parallel", "4",
                           "--instances", str(tmp_path / "one.jsonl"),
                           "--cache", str(tmp_path / "cache.jsonl"),
                           "--out", str(tmp_path / "sessions.jsonl"),
                           "--fail-reflection"]) == 0

    origins = [request.origin for request in requests]
    assert None not in origins
    assert len(set(origins)) == len(origins)
    roles = {origin.role for origin in origins}
    assert {SUMMARIZER, "UserCF", Phase.PLAN, Phase.REFLECTION, Phase.RECOMMEND,
            (Phase.CORRECTION, SubtaskKind.DIVERGENCE)} <= roles
    assert set(KIND_PHASE.values()) <= roles
    assert {origin.send for origin in origins if origin.role == SUMMARIZER} == {0, 1, 2}


def role_name(role):
    if isinstance(role, tuple):  # a correction pass
        return f"{role[0].value} of {role[1].value}"
    return role.value


def origin_script(request, _index):
    """Replies chosen by origin alone; each reply's thinking names the origin it answers."""
    origin = request.origin
    role, user, send = origin.role, origin.subject, origin.send
    thinking = f"Answering {role_name(role)} send {send} for {user}."
    if role is Phase.PLAN:
        payload = [kind.value for kind in SubtaskKind]
    elif role in PHASE_KIND or isinstance(role, tuple):
        if send == 0:
            call = {"name": "UserCF", "arguments": {"user_id": user}}
            return f"{thinking}\n<tool_call>{json.dumps(call)}</tool_call>"
        payload = [f"{role_name(role)} conclusion"]
    elif role is Phase.REFLECTION:
        payload = {"correct": "no", "problematic_agent": [
            {"agent_name": kind.value, "suggestion": f"revisit {kind.value}"} for kind in FLAGGED
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
    assert [record.phase for record in serial.phases] == [
        Phase.PLAN, Phase.USER_PROFILE, Phase.HISTORICAL, Phase.RECENT, Phase.DIVERGENCE,
        Phase.REFLECTION, Phase.CORRECTION, Phase.CORRECTION, Phase.RECOMMEND,
    ]
    assert serial.phases[6].kind is SubtaskKind.RECENT
    assert serial.phases[6].payload == '["correction of Recent_Interest_Analysis conclusion"]'
    assert serial.final_ranking == ("c4", "c2", "c3", "c1")
    assert scripted_session(4) == serial


@pytest.mark.parametrize("width", [1, 4])
@pytest.mark.parametrize("role, send, phase", [
    (Phase.HISTORICAL, 1, Phase.HISTORICAL),
    (Phase.REFLECTION, 0, Phase.REFLECTION),
    ((Phase.CORRECTION, SubtaskKind.DIVERGENCE), 1, Phase.CORRECTION),
], ids=["historical", "reflection", "correction"])
def test_a_bad_reply_at_one_origin_fails_its_phase(role, send, phase, width):
    def script(request, index):
        if (request.origin.role, request.origin.send) == (role, send):
            return "no structure here at all"
        return origin_script(request, index)

    with pytest.raises(SessionError) as excinfo:
        scripted_session(width, script)
    assert excinfo.value.phase == phase.value
    assert isinstance(excinfo.value.cause, ReplyParseError)
