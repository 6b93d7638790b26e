"""Chat-completions gateway: one HTTP backend, one scripted offline backend.

The Gateway owns retry-with-backoff and the global in-flight bound; backends
only know how to send a single request. Tests always run on ScriptBackend, so
no unit test ever touches the network.
"""

from __future__ import annotations

import logging
import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol

from .errors import GatewayError

logger = logging.getLogger(__name__)

VALID_ROLES = ("system", "user", "assistant", "tool")

BASE_DELAY_S = 0.5   # first backoff delay
MAX_DELAY_S = 8.0    # backoff ceiling
JITTER_FRACTION = 0.25

DEFAULT_TEMPERATURE = 0.7
DEFAULT_TOP_P = 0.95


@dataclass(frozen=True)
class ChatUsage:
    prompt_tokens: int = 0
    completion_tokens: int = 0


@dataclass(frozen=True)
class ChatReply:
    content: str
    usage: ChatUsage = field(default_factory=ChatUsage)


@dataclass(frozen=True)
class ChatRequest:
    """One chat-completion request. Messages are role/content dicts."""

    messages: tuple[dict, ...]
    temperature: float = DEFAULT_TEMPERATURE
    top_p: float = DEFAULT_TOP_P
    max_tokens: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if not self.messages:
            raise ValueError("messages must be non-empty")
        for msg in self.messages:
            if not isinstance(msg, dict) or "role" not in msg or "content" not in msg:
                raise ValueError("each message needs role and content")
            if msg["role"] not in VALID_ROLES:
                raise ValueError(f"invalid role {msg['role']!r}")
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError(f"temperature {self.temperature} outside [0, 2]")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError(f"top_p {self.top_p} outside (0, 1]")
        if self.max_tokens is not None and self.max_tokens < 1:
            raise ValueError("max_tokens must be positive")


def chat_request(messages: Iterable, **kwargs) -> ChatRequest:
    """Build a ChatRequest from role/content dicts or (role, content) pairs."""
    normalized = tuple(
        msg if isinstance(msg, dict) else {"role": msg[0], "content": msg[1]}
        for msg in messages
    )
    return ChatRequest(messages=normalized, **kwargs)


@dataclass
class GatewayConfig:
    endpoint: str = ""
    api_key_env: str = "LLM_API_KEY"
    model: str = ""
    max_parallel: int = 4
    retries: int = 3
    timeout_s: float = 60.0

    def __post_init__(self):
        if self.max_parallel < 1:
            raise ValueError("max_parallel must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")


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


class _FifoSlots:
    """A bound on concurrent holders whose freed slots go to the longest waiter.

    A release hands the slot straight to the head of the queue, so a thread
    that releases and asks again at once queues behind every earlier waiter
    (threading.Semaphore would let it take the slot back first).
    """

    def __init__(self, size: int):
        self._lock = threading.Lock()
        self._free = size
        self._waiters: deque[threading.Lock] = deque()

    def __enter__(self) -> None:
        with self._lock:
            if self._free:
                self._free -= 1
                return
            ticket = threading.Lock()
            ticket.acquire()
            self._waiters.append(ticket)
        ticket.acquire()  # released by the holder that hands this thread its slot

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            if self._waiters:
                self._waiters.popleft().release()
            else:
                self._free += 1


class Gateway:
    """Retry, backoff, and bounded parallelism around a backend."""

    def __init__(
        self,
        backend: Backend,
        config: GatewayConfig | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self._backend = backend
        self.config = config or GatewayConfig()
        self._sleep = sleep
        self._slots = _FifoSlots(self.config.max_parallel)
        self._count_lock = threading.Lock()
        self.call_count = 0  # completed complete() invocations, assertable in tests

    def complete(self, request: ChatRequest) -> ChatReply:
        attempts = self.config.retries + 1
        last: TransientFailure | None = None
        for attempt in range(attempts):
            try:
                with self._slots:
                    reply = self._backend.send(request)
                with self._count_lock:
                    self.call_count += 1
                return reply
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
            "temperature": request.temperature,
            "top_p": request.top_p,
        }
        if request.max_tokens is not None:
            body["max_tokens"] = request.max_tokens
        if request.seed is not None:
            body["seed"] = request.seed

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

        usage = payload.get("usage") or {}
        return ChatReply(
            content=content,
            usage=ChatUsage(
                prompt_tokens=int(usage.get("prompt_tokens", 0)),
                completion_tokens=int(usage.get("completion_tokens", 0)),
            ),
        )


class ScriptBackend:
    """Deterministic scripted backend: replays entries in send order.

    Entries may be reply strings, exceptions to raise (TransientFailure to
    exercise retries), or callables of (request, index) returning a string.
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
