"""Exception types shared across the pipeline.

Every error raised by library code derives from PipelineError so the CLI can
report any pipeline failure with one machine-parsable line. One fault has one
class: a malformed LLM reply is a ReplyParseError whoever asked for it, a
bad tool call in it included; an operation given too few elements raises
InsufficientInput, an id the data lacks raises UnknownId, and a failed LLM
send is a GatewayError whose kind decides whether the gateway retries it.
"""

from __future__ import annotations


class PipelineError(Exception):
    """Base class for all pipeline failures."""


class MalformedRecord(PipelineError):
    """A line-delimited record file contains a bad line."""

    def __init__(self, line: int, reason: str, source: str):
        self.line = line
        self.reason = reason
        self.source = source
        super().__init__(f"{source}:{line}: {reason}")


class InsufficientInput(PipelineError):
    """An operation got fewer elements than it needs: none, or fewer than its minimum."""


class UnknownId(PipelineError):
    """A user or item id the data at hand lacks; the message names the side and the id."""


TRANSIENT_GATEWAY_ERROR_KINDS = ("rate_limit", "server_error", "timeout", "connection_error")
GATEWAY_ERROR_KINDS = TRANSIENT_GATEWAY_ERROR_KINDS + ("auth", "malformed_response")


class GatewayError(PipelineError):
    """A chat-completion send failed. The gateway retries a transient kind; any other fails at once."""

    def __init__(self, kind: str, detail: str = ""):
        if kind not in GATEWAY_ERROR_KINDS:
            raise ValueError(f"unknown gateway error kind {kind!r}")
        self.kind = kind
        super().__init__(f"{kind}: {detail}" if detail else kind)

    @property
    def transient(self) -> bool:
        return self.kind in TRANSIENT_GATEWAY_ERROR_KINDS


class ReplyParseError(PipelineError):
    """An LLM reply lacks the envelope or payload its caller asked for.

    One class for every reader: the teacher's agents, the history summarizer
    and the evidence verbalizer, and every malformed tool call; the message
    names what was asked.
    """


class SessionError(PipelineError):
    """A teacher session aborted; names the phase that failed and its cause's class."""

    def __init__(self, phase: str, cause: Exception):
        self.phase = phase
        self.cause = cause
        super().__init__(f"session aborted in phase {phase!r}: {type(cause).__name__}: {cause}")


TAG_ERROR_KINDS = (
    "unclosed",
    "unknown",
    "misnested",
    "duplicate_recommend",
    "missing_recommend",
)


class TagError(PipelineError):
    """Trajectory text violates the tag grammar."""

    def __init__(self, kind: str, detail: str = ""):
        if kind not in TAG_ERROR_KINDS:
            raise ValueError(f"unknown tag error kind {kind!r}")
        self.kind = kind
        super().__init__(f"{kind}: {detail}" if detail else kind)
