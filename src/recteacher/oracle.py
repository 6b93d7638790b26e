"""Deterministic oracle backend for offline pipeline runs.

Plays every agent role by reading the request's origin (role, subject and send
index); only the ranker also reads its prompt, for the candidate ids. It plans
all four subtasks, calls one CF tool on each analysis agent's first send, and
ranks the ground truth first when it knows it, so the pipeline runs offline.
"""

from __future__ import annotations

import json
import re
import threading
from typing import Mapping

from .abstract import SUMMARIZER
from .gateway import ChatReply, ChatRequest
from .tags import encode_tool_call
from .teacher import AGENT_NAMES, Phase, session_evidence_call

_CANDIDATE_LINE = re.compile(r"^\d+\. item_id: (\S+)", re.MULTILINE)

_SUGGESTION = "reweigh interest divergence against the recent behavior signals"

# Verbalizer role (the evidence tool) -> what its prompt calls the neighbor items.
_EVIDENCE_ITEMS = {"ItemCF": "collaborative", "UserCF": "preference"}

_ANSWER_BODY = (
    "Category 1: Shared Themes\n"
    "Category Summary: the surrounding items cluster around one dominant theme.\n"
    "Representative Items: see the numbered list above"
)

_SUMMARY_BODY = (
    "The user moved through the listed interactions in order, returning to the "
    "same themes with steady engagement across the covered period."
)


class OracleBackend:
    """Scripted replies keyed off the request's origin."""

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
        return ChatReply(content=self._reply(request))

    def _reply(self, request: ChatRequest) -> str:
        origin = request.origin
        role = origin.role if origin is not None else None
        if role is Phase.PLAN:
            return self._plan()
        if role in AGENT_NAMES:  # an analysis agent or its correction
            return self._subtask(AGENT_NAMES[role], origin.subject, origin.send)
        if role is Phase.REFLECTION:
            return self._reflect()
        if role is Phase.RECOMMEND:
            return self._rank(origin.subject, request)
        if role == SUMMARIZER:
            return f"Condensing the segment.\n<SUMMARY>{_SUMMARY_BODY}</SUMMARY>"
        if role in _EVIDENCE_ITEMS:
            return (f"Grouping the {_EVIDENCE_ITEMS[role]} items.\n"
                    f"<Answer>\n{_ANSWER_BODY}\n</Answer>")
        raise AssertionError(f"oracle got a request of unknown origin {origin!r}")

    def _plan(self) -> str:
        names = json.dumps(list(AGENT_NAMES.values()))
        return f"All four analyses are useful here, in the standard order.\n<JSON>{names}</JSON>"

    def _subtask(self, agent_name: str, user: str, send: int) -> str:
        if send == 0:
            call = encode_tool_call(session_evidence_call(user))
            return f"Pulling collaborative evidence first.\n<tool_call>{call}</tool_call>"
        conclusion = json.dumps([f"{agent_name} conclusion for user {user}"])
        return f"Evidence received; summarizing.\n<JSON>{conclusion}</JSON>"

    def _reflect(self) -> str:
        if self.fail_reflection:
            verdict = {
                "correct": "no",
                "problematic_agent": [
                    {"agent_name": AGENT_NAMES[Phase.DIVERGENCE], "suggestion": _SUGGESTION}
                ],
            }
            return f"The divergence analysis overreaches.\n<JSON>{json.dumps(verdict)}</JSON>"
        return 'All outputs line up.\n<JSON>{"correct": "yes"}</JSON>'

    def _rank(self, user: str, request: ChatRequest) -> str:
        prompt = request.messages[1]["content"]
        candidates = _CANDIDATE_LINE.findall(prompt.split("# Candidate Item Information")[-1])
        ranking = sorted(candidates, key=lambda item: item != self.ground_truth.get(user))
        return f"Ordering candidates by fit with the analyses.\n<JSON>{json.dumps(ranking)}</JSON>"
