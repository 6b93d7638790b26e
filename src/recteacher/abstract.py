"""Long-history preprocessing: iterative summarization over sliding windows.

Distant history is folded chunk by chunk into one rolling summary; the final
chunk stays raw so the orchestrator sees recent behavior verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .corpus import Interaction
from .errors import InsufficientInput
from .gateway import Gateway, Origin, chat_request
from . import prompts
from .tags import SUMMARY_TAG, reply_body

# The chunk size m the teacher cuts every history into: all chunks but the
# last are summarized. Fixed, so every trajectory of a run is built the same way.
DEFAULT_WINDOW_M = 10
SUMMARIZER = "abstract"  # the origin role of a summary call; send n folds chunk n


@dataclass(frozen=True)
class HybridHistory:
    long_term_summary: str
    recent_raw: tuple[Interaction, ...]


def chunk(history: Sequence[Interaction], m: int) -> list[list[Interaction]]:
    """Consecutive groups of m; the final group holds the 1..m remainder."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return [list(history[i:i + m]) for i in range(0, len(history), m)]


def abstract(
    history: Sequence[Interaction],
    m: int,
    gateway: Gateway,
    render: Callable[[Interaction], str],
    user_block: str = "",
) -> HybridHistory:
    """Fold all chunks but the last into a rolling summary.

    Gateway calls = len(chunks) - 1 when there are 2+ chunks, else 0. Every call's
    origin subject is `history[0].user`, the session's user: an instance's history is its own.
    """
    if not history:
        raise InsufficientInput("history is empty")
    chunks = chunk(history, m)
    if len(chunks) <= 1:
        return HybridHistory(long_term_summary="", recent_raw=tuple(history))

    system = prompts.history_summary_system()
    summary = ""
    for send, part in enumerate(chunks[:-1]):
        block = "\n".join(f"{i}. {render(x)}" for i, x in enumerate(part, start=1))
        user_text = prompts.history_summary_user(user_block, summary, block)
        messages = [{"role": "system", "content": system}, {"role": "user", "content": user_text}]
        request = chat_request(messages, Origin(SUMMARIZER, history[0].user, send))
        summary = reply_body(gateway.complete(request).content, SUMMARY_TAG,
                             f"chunk of {len(part)} interactions")
    return HybridHistory(long_term_summary=summary, recent_raw=tuple(chunks[-1]))
