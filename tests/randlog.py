"""Random valid SessionLogs and guaranteed-invalid text mutations.

The generator keeps thinking text tag-free and digit-free so serialized logs
exercise the codec without accidentally forming grammar tokens or numbered
lines. Every mutator breaks the grammar in a way the parser must reject.
"""

from __future__ import annotations

import json
import random
import re

from recteacher.tags import ToolCall
from recteacher.teacher import AGENT_NAMES, Phase, PhaseRecord, SessionLog

WORDS = (
    "signal", "drift", "stable", "broad", "focus", "niche", "shift",
    "steady", "novel", "recurring", "pattern", "taste", "genre", "series",
    "echo", "cluster", "anchor", "spread",
)

SUGGESTIONS = (
    "lean on fresher signals",
    "cross-check against the long-term summary",
    "weigh the collaborative evidence higher",
)


def rand_thinking(rng: random.Random, allow_empty: bool = True) -> str:
    if allow_empty and rng.random() < 0.2:
        return ""
    lines = []
    for _ in range(rng.randint(1, 3)):
        lines.append(" ".join(rng.choice(WORDS) for _ in range(rng.randint(2, 6))))
    return "\n".join(lines)


def rand_tool_events(rng: random.Random, user: str) -> tuple[tuple[ToolCall, str], ...]:
    events = []
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.5:
            call = ToolCall("UserCF", user)
        else:
            call = ToolCall("ItemCF", f"i{rng.randint(1, 400):03d}")
        result = " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 8)))
        events.append((call, result))
    return tuple(events)


def random_log(rng: random.Random) -> SessionLog:
    user = f"u{rng.randint(1, 999):03d}"
    candidates = rng.sample([f"c{n:03d}" for n in range(1, 200)], 20)

    agents = list(AGENT_NAMES)
    rng.shuffle(agents)
    agents = agents[: rng.randint(1, len(agents))]

    phases = [
        PhaseRecord(
            Phase.PLAN,
            rand_thinking(rng),
            (),
            json.dumps([AGENT_NAMES[k] for k in agents]),
        )
    ]
    for agent in agents:
        phases.append(
            PhaseRecord(
                agent,
                rand_thinking(rng),
                rand_tool_events(rng, user),
                json.dumps([f"{AGENT_NAMES[agent]} view of the {rng.choice(WORDS)}"]),
            )
        )

    failing = [agent for agent in agents if rng.random() < 0.25]
    if failing:
        verdict = {
            "correct": "no",
            "problematic_agent": [
                {"agent_name": AGENT_NAMES[agent], "suggestion": rng.choice(SUGGESTIONS)}
                for agent in failing
            ],
        }
    else:
        verdict = {"correct": "yes"}
    phases.append(PhaseRecord(Phase.REFLECTION, rand_thinking(rng), (), json.dumps(verdict)))

    for agent in failing:
        phases.append(
            PhaseRecord(
                agent,
                rand_thinking(rng),
                rand_tool_events(rng, user),
                json.dumps([f"revised {AGENT_NAMES[agent]}"]),
                turn=1,
            )
        )

    ranking = list(candidates)
    rng.shuffle(ranking)
    phases.append(PhaseRecord(Phase.RECOMMEND, rand_thinking(rng), rand_tool_events(rng, user), ""))

    return SessionLog(
        candidates=tuple(candidates),
        phases=tuple(phases),
        final_ranking=tuple(ranking),
    )


def expected_sections(log: SessionLog) -> list[tuple[str, str, str | None, tuple]]:
    """(tag, thinking, payload, tool_events) per phase, as parse should see them."""
    rows = []
    for record in log.phases:
        tag = record.phase.value
        if record.phase is Phase.RECOMMEND:
            payload = None
        else:
            payload = record.payload if record.payload else None
        rows.append((tag, record.thinking, payload, record.tool_events))
    return rows


# ---------------------------------------------------------------------------
# mutations: each returns text the parser must reject

_SECTION_CLOSER = re.compile(
    r"</(plan|user_profile|historical_analysis|recent_analysis|interest_divergence|reflection|recommend)>"
)


def _pick(rng: random.Random, matches: list[re.Match]) -> re.Match:
    return matches[rng.randrange(len(matches))]


def drop_section_closer(text: str, rng: random.Random) -> str:
    match = _pick(rng, list(_SECTION_CLOSER.finditer(text)))
    return text[: match.start()] + text[match.end():]


def mismatch_section_closer(text: str, rng: random.Random) -> str:
    match = _pick(rng, list(_SECTION_CLOSER.finditer(text)))
    others = [t for t in ("plan", "reflection", "recommend", "user_profile") if t != match.group(1)]
    return text[: match.start()] + f"</{rng.choice(others)}>" + text[match.end():]


def duplicate_recommend(text: str, rng: random.Random) -> str:
    return text + "\n<recommend>\n1. extra\n</recommend>"


def section_after_recommend(text: str, rng: random.Random) -> str:
    return text + '\n<plan>\n<JSON>["late"]</JSON>\n</plan>'


def delete_recommend(text: str, rng: random.Random) -> str:
    start = text.index("<recommend>")
    end = text.index("</recommend>") + len("</recommend>")
    return text[:start] + text[end:]


def delete_ranking_lines(text: str, rng: random.Random) -> str:
    start = text.index("<recommend>")
    end = text.index("</recommend>")
    body = text[start + len("<recommend>"):end]
    kept = [line for line in body.split("\n") if not re.match(r"\s*\d+\.", line)]
    return text[: start + len("<recommend>")] + "\n".join(kept) + text[end:]


def tool_call_at_top_level(text: str, rng: random.Random) -> str:
    closer = text.index("</plan>") + len("</plan>")
    block = '\n<tool_call>{"name": "UserCF", "arguments": {"user_id": "u001"}}</tool_call>'
    return text[:closer] + block + text[closer:]


def tool_call_inside_plan(text: str, rng: random.Random) -> str:
    opener = text.index("<plan>") + len("<plan>")
    block = '\n<tool_call>{"name": "UserCF", "arguments": {"user_id": "u001"}}</tool_call>'
    return text[:opener] + block + text[opener:]


def stray_top_level_text(text: str, rng: random.Random) -> str:
    closer = text.index("</plan>") + len("</plan>")
    return text[:closer] + "\nloose words between sections" + text[closer:]


MUTATORS = (
    drop_section_closer,
    mismatch_section_closer,
    duplicate_recommend,
    section_after_recommend,
    delete_recommend,
    delete_ranking_lines,
    tool_call_at_top_level,
    tool_call_inside_plan,
    stray_top_level_text,
)


def mutate(text: str, rng: random.Random) -> str:
    return rng.choice(MUTATORS)(text, rng)
