"""Chat-completions gateway: one HTTP backend, one scripted offline backend.

The Gateway owns retry-with-backoff and the global in-flight bound; backends
only know how to send a single request. A freed slot goes to the waiting send
of the earliest-started session (`Gateway.for_session`), FIFO among equals.
Tests always run on ScriptBackend, so no unit test ever touches the network.
"""

from __future__ import annotations

import copy
import heapq
import itertools
import logging
import math
import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Iterator, Protocol

from .errors import GatewayError

logger = logging.getLogger(__name__)

VALID_ROLES = ("system", "user", "assistant", "tool")

BASE_DELAY_S = 0.5   # first backoff delay
MAX_DELAY_S = 8.0    # backoff ceiling
JITTER_FRACTION = 0.25


@dataclass(frozen=True)
class ChatUsage:
    prompt_tokens: int = 0
    completion_tokens: int = 0


@dataclass(frozen=True)
class ChatReply:
    content: str
    usage: ChatUsage = field(default_factory=ChatUsage)


@dataclass(frozen=True)
class Origin:
    """Which agent sent a request: its role, its subject and the send's index within its turn.

    The role is a teacher `Phase` (`(Phase.CORRECTION, kind)` on a correction pass),
    the history summarizer or an evidence tool's verbalizer; the subject is a user or anchor id.
    `turn` is 1 only on a ranker that ranks corrections too, at every
    `--parallel`, so it never shares an origin with the early ranker (turn 0)
    that a failing verdict discards.
    """

    role: Hashable
    subject: str
    send: int = 0
    turn: int = 0


@dataclass(frozen=True)
class ChatRequest:
    """One chat-completion request. Messages are role/content dicts; no backend sends `origin`."""

    messages: tuple[dict, ...]
    origin: Origin | None = None

    def __post_init__(self):
        if not self.messages:
            raise ValueError("messages must be non-empty")
        for msg in self.messages:
            if not isinstance(msg, dict) or "role" not in msg or "content" not in msg:
                raise ValueError("each message needs role and content")
            if msg["role"] not in VALID_ROLES:
                raise ValueError(f"invalid role {msg['role']!r}")


def chat_request(messages: Iterable, origin: Origin | None = None) -> ChatRequest:
    """A ChatRequest from role/content dicts; (role, content) pairs are still read for perfbench's tests."""
    normalized = tuple(
        msg if isinstance(msg, dict) else {"role": msg[0], "content": msg[1]}
        for msg in messages
    )
    return ChatRequest(messages=normalized, origin=origin)


@dataclass
class GatewayConfig:
    """Where and how every request is sent; sampling applies to each request alike."""

    endpoint: str = ""
    api_key_env: str = "LLM_API_KEY"
    model: str = ""
    temperature: float = 0.7
    top_p: float = 0.95
    max_parallel: int = 4
    retries: int = 3
    timeout_s: float = 60.0

    def __post_init__(self):
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError(f"temperature {self.temperature} outside [0, 2]")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError(f"top_p {self.top_p} outside (0, 1]")
        if self.max_parallel < 1:
            raise ValueError("max_parallel must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if not 0 < self.timeout_s < math.inf:  # nan fails both comparisons
            raise ValueError(f"timeout_s {self.timeout_s} must be positive and finite")


class TransientFailure(Exception):
    """A retryable backend failure (rate limit, server error, timeout, lost connection)."""

    def __init__(self, kind: str, detail: str = ""):
        self.kind = kind  # "rate_limit" | "server" | "timeout" | "connection"
        super().__init__(f"{kind}: {detail}" if detail else kind)


_EXHAUSTED_KIND = {
    "rate_limit": "rate_limit_exhausted",
    "server": "server_error",
    "timeout": "timeout",
    "connection": "connection_error",
}


class Backend(Protocol):
    def send(self, request: ChatRequest) -> ChatReply: ...


class _RankedSlots:
    """A bound on concurrent holders whose freed slots go to the waiter of lowest rank.

    Waiters of equal rank are served in arrival order. A release hands the
    slot straight to the chosen waiter, so a thread that releases and asks
    again at once queues behind every earlier waiter of its rank
    (threading.Semaphore would let it take the slot back first).
    """

    def __init__(self, size: int):
        self._lock = threading.Lock()
        self._free = size
        self._arrivals = itertools.count()
        # (rank, arrival, ticket): arrivals are unique, so tickets are never compared
        self._waiters: list[tuple[int, int, threading.Lock]] = []

    @contextmanager
    def hold(self, rank: int) -> Iterator[None]:
        with self._lock:
            if self._free:
                self._free -= 1
                ticket = None
            else:
                ticket = threading.Lock()
                ticket.acquire()
                heapq.heappush(self._waiters, (rank, next(self._arrivals), ticket))
        if ticket is not None:
            ticket.acquire()  # released by the holder that hands this thread its slot
        try:
            yield
        finally:
            with self._lock:
                if self._waiters:
                    heapq.heappop(self._waiters)[2].release()
                else:
                    self._free += 1


# The rank of the root gateway's own sends (verbalize's): ahead of every
# session. run-teacher sends only through session handles, every evidence fill
# included, so a fill waits behind no younger session.
UNSESSIONED = -1


class Gateway:
    """Retry, backoff, and bounded parallelism around a backend.

    At most `config.max_parallel` sends are in flight. A freed slot goes to
    the waiting send of lowest rank, FIFO among equals: a handle from
    `for_session(rank)` sends at that rank, the gateway itself at
    `UNSESSIONED`, ahead of every session.
    """

    def __init__(
        self,
        backend: Backend,
        config: GatewayConfig | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self._backend = backend
        self.config = config or GatewayConfig()
        self._sleep = sleep
        self._slots = _RankedSlots(self.config.max_parallel)
        self._rank = UNSESSIONED

    def for_session(self, rank: int) -> Gateway:
        """A shallow copy that sends at `rank`, sharing the backend, config, sleep and slots.

        Sessions are ranked in the order they start, from 0, so a freed slot
        goes to the oldest session waiting for one.
        """
        handle = copy.copy(self)
        handle._rank = rank
        return handle

    def complete(self, request: ChatRequest) -> ChatReply:
        attempts = self.config.retries + 1
        last: TransientFailure | None = None
        for attempt in range(attempts):
            try:
                with self._slots.hold(self._rank):
                    return self._backend.send(request)
            except TransientFailure as exc:
                last = exc
                if attempt < attempts - 1:
                    self._sleep(_backoff_delay(attempt))
                    logger.debug("retrying after %s (attempt %d)", exc, attempt + 1)
        assert last is not None
        raise GatewayError(_EXHAUSTED_KIND[last.kind], str(last))


def _backoff_delay(attempt: int) -> float:
    delay = min(BASE_DELAY_S * (2 ** attempt), MAX_DELAY_S)
    return delay * (1.0 + JITTER_FRACTION * (2 * random.random() - 1))


class HttpBackend:
    """POSTs to <endpoint>/chat/completions with bearer auth from the env."""

    def __init__(self, config: GatewayConfig):
        if not config.endpoint:
            raise ValueError("HttpBackend needs a non-empty endpoint")
        self.config = config
        import requests

        self._session = requests.Session()
        self._requests = requests

    def send(self, request: ChatRequest) -> ChatReply:
        body = {
            "model": self.config.model,
            "messages": list(request.messages),
            "temperature": self.config.temperature,
            "top_p": self.config.top_p,
        }

        headers = {}
        api_key = os.environ.get(self.config.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

        url = self.config.endpoint.rstrip("/") + "/chat/completions"
        try:
            resp = self._session.post(url, json=body, headers=headers, timeout=self.config.timeout_s)
        except self._requests.Timeout as exc:
            raise TransientFailure("timeout", str(exc)) from exc
        except self._requests.RequestException as exc:
            raise TransientFailure("connection", str(exc)) from exc

        if resp.status_code in (401, 403):
            raise GatewayError("auth", f"HTTP {resp.status_code}")
        if resp.status_code == 429:
            raise TransientFailure("rate_limit", "HTTP 429")
        if 500 <= resp.status_code < 600:
            raise TransientFailure("server", f"HTTP {resp.status_code}")
        if resp.status_code != 200:
            raise GatewayError("malformed_response", f"HTTP {resp.status_code}")

        try:
            payload = resp.json()
            content = payload["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise TypeError("content is not a string")
        except Exception as exc:
            raise GatewayError("malformed_response", str(exc)) from exc

        usage = payload.get("usage")
        counts = usage if isinstance(usage, dict) else {}  # a malformed usage reads 0
        return ChatReply(
            content=content,
            usage=ChatUsage(
                prompt_tokens=_token_count(counts.get("prompt_tokens")),
                completion_tokens=_token_count(counts.get("completion_tokens")),
            ),
        )


def _token_count(value: Any) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        return 0


class ScriptBackend:
    """Deterministic scripted backend: replays entries in send order.

    Entries may be reply strings, exceptions to raise (TransientFailure to
    exercise retries), or callables of (request, index) returning a string.
    A callable keyed on `request.origin`, not the index, replies alike at any parallelism.
    """

    def __init__(self, script: Iterable):
        self._script = list(script)
        self._lock = threading.Lock()
        self._index = 0
        self.requests: list[ChatRequest] = []

    @property
    def sends(self) -> int:
        return self._index

    def send(self, request: ChatRequest) -> ChatReply:
        with self._lock:
            if self._index >= len(self._script):
                raise RuntimeError(f"script exhausted after {len(self._script)} entries")
            entry = self._script[self._index]
            index = self._index
            self._index += 1
            self.requests.append(request)
        if callable(entry) and not isinstance(entry, Exception):
            entry = entry(request, index)
        if isinstance(entry, Exception):
            raise entry
        return ChatReply(content=entry)
