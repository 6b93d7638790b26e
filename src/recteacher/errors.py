"""Exception types shared across the pipeline.

Every error raised by library code derives from PipelineError so the CLI can
report any pipeline failure with one machine-parsable line. One fault has one
class: a malformed LLM reply is a ReplyParseError whoever asked for it.
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


class SequenceTooShort(PipelineError):
    """A user's sequence cannot support a holdout split."""

    def __init__(self, user: str, detail: str = "needs at least 2 interactions"):
        self.user = user
        super().__init__(f"user {user!r}: {detail}")


class UnknownUser(PipelineError):
    pass


class UnknownItem(PipelineError):
    pass


GATEWAY_ERROR_KINDS = (
    "auth",
    "rate_limit_exhausted",
    "server_error",
    "timeout",
    "connection_error",
    "malformed_response",
)


class GatewayError(PipelineError):
    """A chat-completion request failed for good."""

    def __init__(self, kind: str, detail: str = ""):
        if kind not in GATEWAY_ERROR_KINDS:
            raise ValueError(f"unknown gateway error kind {kind!r}")
        self.kind = kind
        super().__init__(f"{kind}: {detail}" if detail else kind)


class ReplyParseError(PipelineError):
    """An LLM reply lacks the envelope or payload its caller asked for.

    One class for every reader: the teacher's agents, the history summarizer
    and the evidence verbalizer; the message names what was asked.
    """


class ToolParseError(PipelineError):
    pass


class ToolArgumentError(ToolParseError):
    """A recognized tool called without exactly its one id argument."""


class SessionError(PipelineError):
    """A teacher session aborted; names the phase that failed."""

    def __init__(self, phase: str, cause: Exception):
        self.phase = phase
        self.cause = cause
        super().__init__(f"session aborted in phase {phase!r}: {cause}")


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


class InsufficientBucket(PipelineError):
    """A difficulty bucket cannot fill its quota."""

    def __init__(self, bucket: str, need: int, have: int):
        self.bucket = bucket
        self.need = need
        self.have = have
        super().__init__(f"bucket {bucket}: need {need}, have {have}")


class NotEnoughItems(PipelineError):
    """Too few never-interacted items to sample negatives from."""


class EmptyInput(PipelineError):
    """An operation that needs at least one element got none."""


class InsufficientSamples(PipelineError):
    """Best-of-k needs at least max(k') sampled rankings per instance."""
