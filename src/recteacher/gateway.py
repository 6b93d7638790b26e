"""Chat-completions gateway: one HTTP backend, one scripted backend for in-process tests.

The Gateway owns retry-with-backoff and the global in-flight bound; backends
only know how to send a single request. A freed slot goes to the waiting send
of the earliest-started session (`Gateway.for_session`), FIFO among equals,
and that send starts before the thread that freed the slot runs on: the
freeing thread yields the interpreter lock to it rather than keep it while it
parses its reply.
Tests send through ScriptBackend, the oracle, or HttpBackend against a stub
server that `tests/test_http_path.py` binds to 127.0.0.1; only the live
smoke test, run when an endpoint is set, sends past the loopback.
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
from urllib.parse import urlsplit

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

    The role is a teacher `Phase`, the history summarizer or an evidence
    tool's verbalizer; the subject is a user or anchor id. `turn` is 1 on a
    role's pass after a failing verdict: an analysis agent's correction, or
    the ranker that ranks corrections too, at every `--parallel`, so it never
    shares an origin with the early ranker (turn 0) that the verdict discards.
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
        if self.endpoint:  # else every send would fail, and be retried, as a connection error
            url = urlsplit(self.endpoint)
            if url.scheme not in ("http", "https") or not url.hostname:
                raise ValueError(f"endpoint {self.endpoint!r} is not an http(s) URL with a host")


class Backend(Protocol):
    def send(self, request: ChatRequest) -> ChatReply: ...


class _RankedSlots:
    """A bound on concurrent holders whose freed slots go to the waiter of lowest rank.

    Waiters of equal rank are served in arrival order. A release hands the
    slot straight to the chosen waiter, so a thread that releases and asks
    again at once queues behind every earlier waiter of its rank
    (threading.Semaphore would let it take the slot back first). The release
    then blocks until that waiter runs: a woken thread needs the interpreter
    lock, which the releasing thread would otherwise keep while it parses its
    reply and renders its next prompt, so the waiter's send starts first. An
    uncontended acquire or release never waits.
    """

    def __init__(self, size: int):
        self._lock = threading.Lock()
        self._free = size
        self._arrivals = itertools.count()
        # (rank, arrival, ticket, started): arrivals are unique, so locks are never compared
        self._waiters: list[tuple[int, int, threading.Lock, threading.Lock]] = []

    @contextmanager
    def hold(self, rank: int) -> Iterator[None]:
        with self._lock:
            if self._free:
                self._free -= 1
                entry = None
            else:
                entry = (rank, next(self._arrivals), _held_lock(), _held_lock())
                heapq.heappush(self._waiters, entry)
        if entry is not None:
            _, _, ticket, started = entry
            try:
                ticket.acquire()  # released by the holder that hands this thread its slot
            except BaseException:  # a signal handler's exception, which only the main thread gets
                self._withdraw(entry)
                raise
            finally:
                started.release()  # before anything that can raise: that holder waits on it
        try:
            yield
        finally:
            self._release()

    def _release(self) -> None:
        with self._lock:
            if not self._waiters:
                self._free += 1
                return
            _, _, ticket, started = heapq.heappop(self._waiters)
            ticket.release()
        started.acquire()  # drops the interpreter lock until the chosen waiter runs

    def _withdraw(self, entry: tuple) -> None:
        """Take back an abandoned wait: dequeue it, or pass on the slot it was handed."""
        with self._lock:
            queued = entry in self._waiters
            if queued:
                self._waiters.remove(entry)
                heapq.heapify(self._waiters)
        if not queued:
            self._release()


def _held_lock() -> threading.Lock:
    lock = threading.Lock()
    lock.acquire()
    return lock


class Gateway:
    """Retry, backoff, and bounded parallelism around a backend.

    At most `config.max_parallel` sends are in flight. A freed slot goes to
    the waiting send of lowest rank, FIFO among equals: a handle from
    `for_session(rank)` sends at that rank, the gateway itself at 0.
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
        self._rank = 0

    def for_session(self, rank: int) -> Gateway:
        """A shallow copy that sends at `rank`, sharing the backend, config, sleep and slots.

        Sessions are ranked in the order they start, from 0, so a freed slot
        goes to the oldest session waiting for one.
        """
        handle = copy.copy(self)
        handle._rank = rank
        return handle

    def complete(self, request: ChatRequest) -> ChatReply:
        """The backend's reply; a transient GatewayError is retried up to `config.retries` times.

        Each retry backs off first, after a warning that names the failure, the
        attempt and the delay. The last failure is re-raised as it was; a
        GatewayError of any other kind, or any other exception, propagates at once.
        """
        for attempt in itertools.count():
            try:
                with self._slots.hold(self._rank):
                    return self._backend.send(request)
            except GatewayError as exc:
                if not exc.transient or attempt == self.config.retries:
                    raise
                delay = _backoff_delay(attempt)
                logger.warning("send failed (%s), attempt %d of %d; retrying in %.2f s",
                               exc, attempt + 1, self.config.retries + 1, delay)
                self._sleep(delay)


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
            raise GatewayError("timeout", str(exc)) from exc
        except self._requests.RequestException as exc:
            raise GatewayError("connection_error", str(exc)) from exc

        if resp.status_code in (401, 403):
            raise GatewayError("auth", f"HTTP {resp.status_code}")
        if resp.status_code == 408:
            raise GatewayError("timeout", "HTTP 408")
        if resp.status_code == 429:
            raise GatewayError("rate_limit", "HTTP 429")
        if 500 <= resp.status_code < 600:
            raise GatewayError("server_error", f"HTTP {resp.status_code}")
        if resp.status_code != 200:
            raise GatewayError("malformed_response", f"HTTP {resp.status_code} from {url}")

        try:
            payload = resp.json()
            content = payload["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise TypeError("content is not a string")
            content.encode("utf-8")  # resp.json() decodes a lone surrogate escape, which UTF-8 cannot encode
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
    """A JSON integer >= 0 as given; anything else, true and false included, reads 0."""
    return value if type(value) is int and value >= 0 else 0


class ScriptBackend:
    """Deterministic scripted backend: replays entries in send order.

    Entries may be reply strings, exceptions to raise (a GatewayError of a
    transient kind exercises retries), or callables of (request, index)
    returning a string.
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
