"""Deterministic oracle backend for offline pipeline runs.

Plays every agent role by recognizing the system prompt, always plans all four
subtasks, calls one CF tool per subtask, and ranks the ground truth first when
it knows it. The whole pipeline can therefore run with zero network access.
"""

from __future__ import annotations

import json
import re
import threading
from typing import Mapping

from .gateway import ChatReply, ChatRequest
from .teacher import SubtaskKind

# Instance prompts carry the user id in the key-definitions block.
_USER_ID = re.compile(r"\(Value: (\S+)\)")
_CANDIDATE_LINE = re.compile(r"^\d+\. item_id: (\S+)", re.MULTILINE)

_SUGGESTION = "reweigh interest divergence against the recent behavior signals"

_ANSWER_BODY = (
    "Category 1: Shared Themes\n"
    "Category Summary: the surrounding items cluster around one dominant theme.\n"
    "Representative Items: see the numbered list above"
)

_SUMMARY_BODY = (
    "The user moved through the listed interactions in order, returning to the "
    "same themes with steady engagement across the covered period."
)


def _first_user_text(request: ChatRequest) -> str:
    for message in request.messages:
        if message["role"] == "user":
            return message["content"]
    return ""


def _user_id(request: ChatRequest) -> str | None:
    match = _USER_ID.search(_first_user_text(request))
    return match.group(1) if match else None


class OracleBackend:
    """Scripted replies keyed off the agent role in the system prompt."""

    def __init__(
        self,
        ground_truth: Mapping[str, str] | None = None,
        fail_reflection: bool = False,
    ) -> None:
        self.ground_truth = dict(ground_truth or {})
        self.fail_reflection = fail_reflection
        self._lock = threading.Lock()
        self.sends = 0

    def send(self, request: ChatRequest) -> ChatReply:
        with self._lock:
            self.sends += 1
        system = request.messages[0]["content"] if request.messages else ""
        return ChatReply(content=self._reply(system, request))

    def _reply(self, system: str, request: ChatRequest) -> str:
        if "You are a planner agent" in system:
            return self._plan()
        if "You are a user profile summary agent" in system:
            return self._subtask(SubtaskKind.USER_PROFILE, request)
        if "You are a Historical interest analysis agent" in system:
            return self._subtask(SubtaskKind.HISTORICAL, request)
        if "You are a Recent interest analysis agent" in system:
            return self._subtask(SubtaskKind.RECENT, request)
        if "You are an interest divergence reasoning agent" in system:
            return self._subtask(SubtaskKind.DIVERGENCE, request)
        if "You are a Reflector agent" in system:
            return self._reflect()
        if "You are a ranking agent" in system:
            return self._rank(request)
        if "You are a long behavioral sequence summary agent" in system:
            return f"Condensing the segment.\n<SUMMARY>{_SUMMARY_BODY}</SUMMARY>"
        if 'denoted as the "collaborative items"' in system:
            return f"Grouping the collaborative items.\n<Answer>\n{_ANSWER_BODY}\n</Answer>"
        if 'denoted as the "preference items"' in system:
            return f"Grouping the preference items.\n<Answer>\n{_ANSWER_BODY}\n</Answer>"
        raise AssertionError(f"oracle got an unrecognized system prompt: {system[:80]!r}")

    def _plan(self) -> str:
        names = [kind.value for kind in SubtaskKind]
        return (
            "All four analyses are useful here, in the standard order.\n"
            f"<JSON>{json.dumps(names)}</JSON>"
        )

    def _subtask(self, kind: SubtaskKind, request: ChatRequest) -> str:
        had_tool_reply = any(message["role"] == "tool" for message in request.messages)
        user = _user_id(request) or "unknown"
        if not had_tool_reply:
            call = json.dumps({"name": "UserCF", "arguments": {"user_id": user}})
            return (
                "Pulling collaborative evidence first.\n"
                f"<tool_call>{call}</tool_call>"
            )
        conclusion = f"{kind.value} conclusion for user {user}"
        return (
            "Evidence received; summarizing.\n"
            f"<JSON>{json.dumps([conclusion])}</JSON>"
        )

    def _reflect(self) -> str:
        if self.fail_reflection:
            verdict = {
                "correct": "no",
                "problematic_agent": [
                    {"agent_name": SubtaskKind.DIVERGENCE.value, "suggestion": _SUGGESTION}
                ],
            }
            return f"The divergence analysis overreaches.\n<JSON>{json.dumps(verdict)}</JSON>"
        return 'All outputs line up.\n<JSON>{"correct": "yes"}</JSON>'

    def _rank(self, request: ChatRequest) -> str:
        prompt = _first_user_text(request)
        candidates = _CANDIDATE_LINE.findall(prompt.split("# Candidate Item Information")[-1])
        user = _user_id(request)
        target = self.ground_truth.get(user) if user else None
        ranking = list(candidates)
        if target in ranking:
            ranking.remove(target)
            ranking.insert(0, target)
        return (
            "Ordering candidates by fit with the analyses.\n"
            f"<JSON>{json.dumps(ranking)}</JSON>"
        )
