"""Gateway retry/backoff/bounds and both backends."""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from recteacher.errors import GatewayError
from recteacher.gateway import (
    BASE_DELAY_S,
    ChatReply,
    ChatRequest,
    ChatUsage,
    Gateway,
    GatewayConfig,
    HttpBackend,
    ScriptBackend,
    TransientFailure,
    chat_request,
)

REQ = chat_request([("system", "s"), ("user", "u")])


def test_chat_request_normalizes_tuples():
    assert REQ.messages == ({"role": "system", "content": "s"}, {"role": "user", "content": "u"})


def test_chat_request_validation():
    with pytest.raises(ValueError):
        ChatRequest(messages=())
    with pytest.raises(ValueError):
        chat_request([("oracle", "x")])


def test_config_validation():
    with pytest.raises(ValueError, match="temperature"):
        GatewayConfig(temperature=3.0)
    with pytest.raises(ValueError, match="top_p"):
        GatewayConfig(top_p=0.0)
    with pytest.raises(ValueError):
        GatewayConfig(max_parallel=0)
    with pytest.raises(ValueError):
        GatewayConfig(retries=-1)
    with pytest.raises(ValueError):
        GatewayConfig(timeout_s=0)


def test_complete_retries_transient_then_succeeds():
    backend = ScriptBackend([TransientFailure("rate_limit", "429"), "ok"])
    sleeps: list[float] = []
    gateway = Gateway(backend, GatewayConfig(retries=3), sleep=sleeps.append)
    reply = gateway.complete(REQ)
    assert reply.content == "ok"
    assert backend.sends == 2
    assert len(sleeps) == 1
    # first delay is BASE_DELAY_S with +-25% jitter
    assert BASE_DELAY_S * 0.75 <= sleeps[0] <= BASE_DELAY_S * 1.25


def test_complete_exhausts_retries():
    backend = ScriptBackend([TransientFailure("rate_limit")] * 3)
    gateway = Gateway(backend, GatewayConfig(retries=2), sleep=lambda _s: None)
    with pytest.raises(GatewayError) as excinfo:
        gateway.complete(REQ)
    assert excinfo.value.kind == "rate_limit_exhausted"
    assert backend.sends == 3


def test_timeout_exhaustion_keeps_timeout_kind():
    backend = ScriptBackend([TransientFailure("timeout", "t")])
    gateway = Gateway(backend, GatewayConfig(retries=0), sleep=lambda _s: None)
    with pytest.raises(GatewayError) as excinfo:
        gateway.complete(REQ)
    assert excinfo.value.kind == "timeout"


def test_backoff_delays_grow():
    backend = ScriptBackend([TransientFailure("server")] * 4)
    sleeps: list[float] = []
    gateway = Gateway(backend, GatewayConfig(retries=3), sleep=sleeps.append)
    with pytest.raises(GatewayError):
        gateway.complete(REQ)
    assert len(sleeps) == 3
    for attempt, delay in enumerate(sleeps):
        expected = BASE_DELAY_S * (2 ** attempt)
        assert expected * 0.75 <= delay <= expected * 1.25


def test_permanent_errors_do_not_retry():
    backend = ScriptBackend([GatewayError("auth", "401"), "never"])
    gateway = Gateway(backend, GatewayConfig(retries=3), sleep=lambda _s: None)
    with pytest.raises(GatewayError) as excinfo:
        gateway.complete(REQ)
    assert excinfo.value.kind == "auth"
    assert backend.sends == 1


def test_parallelism_bound_is_enforced():
    class ProbeBackend:
        def __init__(self):
            self.lock = threading.Lock()
            self.active = 0
            self.peak = 0

        def send(self, request):
            with self.lock:
                self.active += 1
                self.peak = max(self.peak, self.active)
            time.sleep(0.01)
            with self.lock:
                self.active -= 1
            return ChatReply(content="ok")

    backend = ProbeBackend()
    gateway = Gateway(backend, GatewayConfig(max_parallel=3))
    results = []
    threads = [threading.Thread(target=lambda: results.append(gateway.complete(REQ)))
               for _ in range(12)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 12 and all(r.content == "ok" for r in results)
    assert backend.peak <= 3


def wait_until(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.001)


def test_freed_slots_go_to_waiters_in_arrival_order():
    release_first = threading.Event()
    order: list[str] = []

    class HoldingBackend:
        def send(self, request):
            label = request.messages[0]["content"]
            order.append(label)  # one slot, so one sender at a time
            if label == "holder 1":
                assert release_first.wait(timeout=10)
            return ChatReply(content="ok")

    gateway = Gateway(HoldingBackend(), GatewayConfig(max_parallel=1))

    def ask(label):
        gateway.complete(chat_request([("user", label)]))

    def holder():
        ask("holder 1")
        ask("holder 2")  # asks again at once, as the next tool-loop round does

    threads = [threading.Thread(target=holder)]
    threads[0].start()
    wait_until(lambda: order == ["holder 1"])
    for n in range(3):
        thread = threading.Thread(target=ask, args=(f"waiter {n}",))
        thread.start()
        threads.append(thread)
        wait_until(lambda: len(gateway._slots._waiters) == n + 1)
    release_first.set()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert order == ["holder 1", "waiter 0", "waiter 1", "waiter 2", "holder 2"]


def test_freed_slots_go_to_the_lowest_session_rank_then_in_arrival_order():
    release_holder = threading.Event()
    order: list[str] = []

    class HoldingBackend:
        def send(self, request):
            label = request.messages[0]["content"]
            order.append(label)  # one slot, so one sender at a time
            if label == "holder":
                assert release_holder.wait(timeout=10)
            return ChatReply(content="ok")

    gateway = Gateway(HoldingBackend(), GatewayConfig(max_parallel=1))
    holder = threading.Thread(target=gateway.complete, args=(chat_request([("user", "holder")]),))
    holder.start()
    threads = [holder]
    wait_until(lambda: order == ["holder"])
    # the last waiter belongs to no session, as an on-demand fill does
    waiters = [(2, "2"), (0, "0"), (1, "1a"), (1, "1b"), (1, "1c"), (None, "fill")]
    for n, (rank, label) in enumerate(waiters):
        sender = gateway if rank is None else gateway.for_session(rank)
        thread = threading.Thread(target=sender.complete, args=(chat_request([("user", label)]),))
        thread.start()
        threads.append(thread)
        wait_until(lambda: len(gateway._slots._waiters) == n + 1)
    release_holder.set()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert order == ["holder", "fill", "0", "1a", "1b", "1c", "2"]


def test_ranked_slots_bound_and_serve_every_caller_under_contention():
    slots, callers, calls_each = 3, 24, 20

    class CountingBackend:
        def __init__(self):
            self.lock = threading.Lock()
            self.active = self.peak = self.sends = 0

        def send(self, request):
            with self.lock:
                self.active += 1
                self.peak = max(self.peak, self.active)
            time.sleep(0)
            with self.lock:
                self.active -= 1
                self.sends += 1
            return ChatReply(content="ok")

    backend = CountingBackend()
    gateway = Gateway(backend, GatewayConfig(max_parallel=slots))
    served = [0] * callers

    def caller(index):
        rng = random.Random(index)
        for _ in range(calls_each):
            handle = gateway.for_session(rng.randrange(4)) if index % 3 else gateway
            assert handle.complete(REQ).content == "ok"
            served[index] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(n,)) for n in range(callers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert served == [calls_each] * callers
    assert backend.sends == callers * calls_each
    assert backend.peak <= slots
    assert gateway._slots._free == slots and not gateway._slots._waiters


def test_a_failed_send_frees_its_slot():
    backend = ScriptBackend([RuntimeError("backend down"), "ok"])
    gateway = Gateway(backend, GatewayConfig(max_parallel=1))
    with pytest.raises(RuntimeError):
        gateway.complete(REQ)
    results = []
    thread = threading.Thread(target=lambda: results.append(gateway.complete(REQ)))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert [r.content for r in results] == ["ok"]


def test_script_backend_callable_and_exhaustion():
    backend = ScriptBackend([lambda request, index: f"reply {index}"])
    gateway = Gateway(backend, GatewayConfig())
    assert gateway.complete(REQ).content == "reply 0"
    with pytest.raises(RuntimeError):
        gateway.complete(REQ)
    assert backend.requests[0] == REQ


class FakeResponse:
    def __init__(self, status_code: int, payload=None):
        self.status_code = status_code
        self._payload = payload

    def json(self):
        if self._payload is None:
            raise ValueError("no body")
        return self._payload


class FakeSession:
    def __init__(self, response):
        self._response = response
        self.calls: list[dict] = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        if isinstance(self._response, Exception):
            raise self._response
        return self._response


def _http_backend(response, endpoint="http://api.example/v1/") -> tuple[HttpBackend, FakeSession]:
    backend = HttpBackend(GatewayConfig(endpoint=endpoint, model="m", retries=0))
    session = FakeSession(response)
    backend._session = session
    return backend, session


def test_http_backend_success_and_url(monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "sekret")
    payload = {
        "choices": [{"message": {"content": "hello"}}],
        "usage": {"prompt_tokens": 5, "completion_tokens": 2},
    }
    backend, session = _http_backend(FakeResponse(200, payload))
    reply = backend.send(REQ)
    assert reply.content == "hello"
    assert reply.usage.prompt_tokens == 5
    call = session.calls[0]
    assert call["url"] == "http://api.example/v1/chat/completions"
    assert call["headers"]["Authorization"] == "Bearer sekret"
    assert call["json"]["model"] == "m"
    assert call["json"]["temperature"] == GatewayConfig.temperature
    assert call["json"]["top_p"] == GatewayConfig.top_p


@pytest.mark.parametrize("malformed", [None, ["x"], "x"], ids=["null", "list", "string"])
def test_http_backend_reads_a_malformed_usage_as_zero(malformed):
    def reply_with(usage):
        payload = {"choices": [{"message": {"content": "hello"}}], "usage": usage}
        backend, _session = _http_backend(FakeResponse(200, payload))
        return backend.send(REQ)

    for usage in (malformed, {"prompt_tokens": malformed, "completion_tokens": malformed}):
        reply = reply_with(usage)
        assert reply.content == "hello"
        assert reply.usage == ChatUsage(0, 0)
    assert reply_with({"prompt_tokens": 5, "completion_tokens": malformed}).usage == ChatUsage(5, 0)


def test_http_backend_status_mapping():
    backend, _session = _http_backend(FakeResponse(429))
    with pytest.raises(TransientFailure) as excinfo:
        backend.send(REQ)
    assert excinfo.value.kind == "rate_limit"

    backend, _session = _http_backend(FakeResponse(503))
    with pytest.raises(TransientFailure) as excinfo:
        backend.send(REQ)
    assert excinfo.value.kind == "server"

    backend, _session = _http_backend(FakeResponse(401))
    with pytest.raises(GatewayError) as excinfo:
        backend.send(REQ)
    assert excinfo.value.kind == "auth"

    backend, _session = _http_backend(FakeResponse(200, {"choices": []}))
    with pytest.raises(GatewayError) as excinfo:
        backend.send(REQ)
    assert excinfo.value.kind == "malformed_response"


def test_http_backend_timeout_is_transient():
    import requests

    backend, _session = _http_backend(requests.Timeout("slow"))
    with pytest.raises(TransientFailure) as excinfo:
        backend.send(REQ)
    assert excinfo.value.kind == "timeout"


def test_http_server_error_exhausts_as_server_error():
    backend, session = _http_backend(FakeResponse(503))
    gateway = Gateway(backend, GatewayConfig(retries=2), sleep=lambda _s: None)
    with pytest.raises(GatewayError) as excinfo:
        gateway.complete(REQ)
    assert excinfo.value.kind == "server_error"
    assert len(session.calls) == 3


def test_http_connection_error_is_its_own_kind():
    import requests

    backend, session = _http_backend(requests.ConnectionError("refused"))
    with pytest.raises(TransientFailure) as excinfo:
        backend.send(REQ)
    assert excinfo.value.kind == "connection"
    gateway = Gateway(backend, GatewayConfig(retries=1), sleep=lambda _s: None)
    with pytest.raises(GatewayError) as excinfo:
        gateway.complete(REQ)
    assert excinfo.value.kind == "connection_error"
    assert len(session.calls) == 3


def test_http_backend_requires_endpoint():
    with pytest.raises(ValueError):
        HttpBackend(GatewayConfig(endpoint=""))


def test_every_request_goes_out_with_the_configured_sampling():
    """Summaries, ItemCF and UserCF evidence and teacher turns all send the gateway's sampling."""
    from recteacher.abstract import abstract
    from recteacher.corpus import Corpus, Interaction, ItemMeta, UserMeta
    from recteacher.graph import build_graph
    from recteacher.teacher import TeacherContext, plan
    from recteacher.verbalize import verbalize_item, verbalize_user

    content = ("<SUMMARY>likes x</SUMMARY> <Answer>neighbours agree</Answer> "
               '<JSON>["User_Profile_Summary"]</JSON>')
    config = GatewayConfig(endpoint="http://api.example/v1", temperature=0.2, top_p=0.5, retries=0)
    backend = HttpBackend(config)
    session = FakeSession(FakeResponse(200, {"choices": [{"message": {"content": content}}]}))
    backend._session = session
    gateway = Gateway(backend, config)
    corpus = Corpus(
        users={u: UserMeta(user=u) for u in "AB"},
        items={i: ItemMeta(item=i, title=i.upper()) for i in "xy"},
        sequences={"A": [Interaction("A", "x", 1), Interaction("A", "y", 2)],
                   "B": [Interaction("B", "x", 3)]},
    )
    graph = build_graph(corpus)
    abstract(corpus.sequences["A"], 1, gateway, render=lambda interaction: interaction.item)
    verbalize_item(graph, corpus.items, "x", gateway)
    verbalize_user(graph, corpus.users, corpus.items, "B", gateway)
    plan(TeacherContext(user="A", candidates=("x", "y"), prompt="rank x and y"), gateway)
    sampling = [(call["json"]["temperature"], call["json"]["top_p"]) for call in session.calls]
    assert sampling == [(0.2, 0.5)] * 4
