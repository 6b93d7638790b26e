"""The trajectory codec carries every id the id rule admits and every text a reply can hold.

The property runs over `randlog.random_log` at seeds 0-199. Each log gets one
candidate id drawn from what `corpus.require_id` admits, and one drawn anchor
and evidence text in the first tool call of each tool-using phase. Every
phase's thinking is drawn too and passed through `teacher._thinking`, as the
teacher records it. Drawn texts hold grammar tags, numbered lines and JSON
escapes. Beside the property: every entry of an id refuses `<` and `>`, and
an agent's tool call on an anchor holding `</tool_call>` costs no session.
"""

from __future__ import annotations

from dataclasses import replace
import json
import random
import string

import pytest

from conftest import toy_chain
import recteacher.cli
from randlog import random_log
from recteacher.cli import main
from recteacher.corpus import require_id
from recteacher.gateway import ChatReply
from recteacher.oracle import OracleBackend
from recteacher.rewards import FORMAT_PASS, format_reward
from recteacher.teacher import BLOCK_TAGS, MISS_FALLBACK, SECTION_TAGS, Phase, _thinking
from recteacher.trajectory import parse, serialize

_TAGS = tuple(f"<{tag}>" for tag in SECTION_TAGS + BLOCK_TAGS) + tuple(
    f"</{tag}>" for tag in SECTION_TAGS + BLOCK_TAGS)
_TEXT_PIECES = _TAGS + (
    "\n1. c001", "\n2. x, 3. y", "4.", "\n", " ", "\t", "signal", "drift",
    '"', "\\", "\\n", "\\u003c", "\\/", "<\\/tool_call>", "</", "<", ">", "{", "}", "é", "😀",
)
# Single characters and whole tags; an id is drawn from them and kept only if the id rule admits it.
_ID_PIECES = tuple(string.printable) + ("é", "中", "😀", "\x00", " ") + _TAGS


def _draw_text(rng: random.Random) -> str:
    return "".join(rng.choice(_TEXT_PIECES) for _ in range(rng.randint(0, 12)))


def _draw_id(rng: random.Random, taken: tuple[str, ...]) -> str:
    while True:
        drawn = "".join(rng.choice(_ID_PIECES) for _ in range(rng.randint(1, 4)))
        try:
            if require_id(drawn, "candidate") not in taken:
                return drawn
        except ValueError:
            pass


def _drawn_log(seed: int):
    rng = random.Random(seed)
    log = random_log(rng)
    old = rng.choice(log.candidates)
    new = _draw_id(rng, log.candidates)
    phases = []
    for record in log.phases:
        events = record.tool_events
        if events:
            call, _result = events[0]
            events = ((replace(call, anchor=_draw_text(rng)), _draw_text(rng)), *events[1:])
        phases.append(replace(record, thinking=_thinking(_draw_text(rng)), tool_events=events))
    swap = {old: new}
    return replace(log, phases=tuple(phases),
                   candidates=tuple(swap.get(c, c) for c in log.candidates),
                   final_ranking=tuple(swap.get(c, c) for c in log.final_ranking))


@pytest.mark.parametrize("seed", range(200))
def test_serialize_then_parse_keeps_ranking_thinking_and_tool_events(seed):
    log = _drawn_log(seed)
    text = serialize(log)
    parsed = parse(text)
    assert parsed.ranking == log.final_ranking
    assert [(section.thinking, section.tool_events) for section in parsed.sections] == [
        (record.thinking, record.tool_events) for record in log.phases]
    assert format_reward(text) == FORMAT_PASS


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    """Corpus, graph, warm cache and six instances of the toy chain."""
    d = tmp_path_factory.mktemp("codec")
    toy_chain(d, verbalize=True, limit=6)
    return d


def _with_line(path, out, line, edit):
    """Copy `path` to `out` with the JSON record on (1-based) `line` passed through `edit`."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[line - 1])
    edit(record)
    lines[line - 1] = json.dumps(record) + "\n"
    out.write_text("".join(lines), encoding="utf-8")
    return out


def _set(key, value):
    return lambda record: record.__setitem__(key, value)


def _set_first(key, value):
    return lambda record: record[key].__setitem__(0, value)


_CORPUS_FILES = ("users", "items", "reviews")

# entry (the file the id is written into) -> (line, edit, reason)
_ENTRIES = {
    "users": (3, _set("user_id", "u<3"), "user_id 'u<3' contains '<' or '>'"),
    "items": (2, _set("item_id", "i>2"), "item_id 'i>2' contains '<' or '>'"),
    "reviews": (4, _set("item_id", "c</recommend>"), "item_id 'c</recommend>' contains '<' or '>'"),
    "instances": (2, _set_first("candidates", "c</recommend>"),
                  "candidate 'c</recommend>' contains '<' or '>'"),
    "graph": (3, _set("user", "u</plan>"), "user 'u</plan>' contains '<' or '>'"),
    "cache": (5, _set("anchor", "i<5"), "anchor 'i<5' contains '<' or '>'"),
}


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
def test_every_entry_refuses_angle_brackets_in_an_id(toy, tmp_path, capsys, entry):
    line, edit, reason = _ENTRIES[entry]
    if entry in _CORPUS_FILES:
        files = {name: toy / "corpus" / f"{name}.jsonl" for name in _CORPUS_FILES}
        command = ["ingest"]
    else:
        files = {name: toy / f"{name}.jsonl" for name in ("graph", "cache", "instances")}
        command = ["run-teacher", "--backend", "mock", "--corpus", str(toy / "corpus")]
    bad = files[entry] = _with_line(files[entry], tmp_path / f"{entry}.jsonl", line, edit)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([*command, *(arg for name, path in files.items() for arg in (f"--{name}", str(path))),
                 "--out", str(out)]) == 1
    error_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error: ")]
    assert error_lines == [f"error: MalformedRecord: {bad}:{line}: {reason}"]
    assert not out.exists()


_ODD_CALL = '<tool_call>{"name": "ItemCF", "arguments": {"item_id": "x<\\/tool_call>"}}</tool_call>'


def test_a_tool_call_on_an_anchor_holding_a_closing_tag_keeps_its_session(toy, tmp_path,
                                                                          monkeypatch):
    first_user = json.loads((toy / "instances.jsonl").read_text(encoding="utf-8")
                            .splitlines()[0])["user"]

    class OddAnchorOracle(OracleBackend):
        def send(self, request):
            origin = request.origin
            if (origin.role, origin.subject, origin.send) == (Phase.USER_PROFILE, first_user, 0):
                return ChatReply(content=f"Checking one odd anchor.\n{_ODD_CALL}")
            return super().send(request)

    monkeypatch.setattr(recteacher.cli, "OracleBackend", OddAnchorOracle)
    sessions, kept, rewards = (tmp_path / name for name in ("s.jsonl", "kept.jsonl", "r.jsonl"))
    assert main(["run-teacher", "--backend", "mock", "--corpus", str(toy / "corpus"),
                 "--graph", str(toy / "graph.jsonl"), "--cache", str(toy / "cache.jsonl"),
                 "--instances", str(toy / "instances.jsonl"), "--out", str(sessions),
                 "--parallel", "1"]) == 0
    records = [json.loads(line) for line in sessions.read_text(encoding="utf-8").splitlines()]
    odd = next(record for record in records if record["user"] == first_user)
    profile = next(p for p in odd["phases"] if p["phase"] == Phase.USER_PROFILE.value)
    assert profile["tool_events"] == [
        {"call": {"name": "ItemCF", "arguments": {"item_id": "x</tool_call>"}}, "result": MISS_FALLBACK}]
    assert main(["filter", "--sessions", str(sessions), "--out", str(kept)]) == 0
    assert odd["id"] in [json.loads(line)["id"]
                         for line in kept.read_text(encoding="utf-8").splitlines()]
    assert main(["score-rewards", "--trajectories", str(sessions), "--out", str(rewards)]) == 0
    scores = {r["id"]: r["format_score"]
              for r in map(json.loads, rewards.read_text(encoding="utf-8").splitlines())}
    assert scores[odd["id"]] == FORMAT_PASS
