"""The live path through the CLI: verbalize and run-teacher with `--backend http` against a local stub.

The stub replays the toy oracle's replies, keyed by the sha256 of each
request's messages, so the cache and sessions files must match the mock's
byte for byte at any `--parallel`. A request the stub does not know gets a 404.
It can answer chosen requests with an error status first, and it serves one
`usage` block with every reply.
"""

from __future__ import annotations

import hashlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest

import recteacher.cli
import recteacher.gateway
from recteacher.cli import main
from recteacher.gateway import ChatUsage, Gateway, GatewayConfig, HttpBackend, Origin, chat_request
from recteacher.oracle import OracleBackend
from recteacher.teacher import Phase
from test_toy_digests import DIGESTS

USAGE = {"prompt_tokens": 321, "completion_tokens": 45}


def messages_key(messages) -> str:
    encoded = json.dumps(messages, ensure_ascii=False, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def record(argv: list[str], replies: dict[str, str], origins: dict[str, Origin]) -> None:
    """Run `argv` on the mock, adding the reply and the origin of each request it sends to the maps.

    A request whose messages already have another reply fails the run.
    """
    class RecordingOracle(OracleBackend):
        def send(self, request):
            reply = super().send(request)
            key = messages_key(list(request.messages))
            assert replies.setdefault(key, reply.content) == reply.content, request.origin
            origins[key] = request.origin
            return reply

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recteacher.cli, "OracleBackend", RecordingOracle)
        assert main(argv) == 0, argv


@pytest.fixture(scope="module")
def mock_run(toy_files, tmp_path_factory):
    """The toy chain up to run-teacher on the mock, and two recordings of its replies.

    `replies` holds verbalize's and run-teacher's; `fr_replies` holds
    run-teacher's with `--fail-reflection` at four slots, the only width at
    which the early ranker that a failing verdict discards sends. `origins`
    maps each request of `replies` to the origin it was sent from.
    """
    d = tmp_path_factory.mktemp("http")
    corpus, graph = str(d / "corpus"), str(d / "graph.jsonl")
    assert main(["ingest", "--users", str(toy_files["users"]), "--items", str(toy_files["items"]),
                 "--reviews", str(toy_files["reviews"]), "--out", corpus]) == 0
    assert main(["build-graph", "--corpus", corpus, "--out", graph]) == 0
    assert main(["make-instances", "--corpus", corpus, "--out", str(d / "instances.jsonl")]) == 0
    verbalize = ["verbalize", "--corpus", corpus, "--graph", graph]
    teacher = ["run-teacher", "--corpus", corpus, "--graph", graph,
               "--instances", str(d / "instances.jsonl")]
    warm = ["--backend", "mock", "--cache", str(d / "cache.jsonl")]
    replies: dict[str, str] = {}
    fr_replies: dict[str, str] = {}
    origins: dict[str, Origin] = {}
    record(verbalize + ["--backend", "mock", "--out", str(d / "cache.jsonl")], replies, origins)
    record(teacher + warm + ["--out", str(d / "sessions.jsonl")], replies, origins)
    record(teacher + warm + ["--out", str(d / "fr_sessions.jsonl"), "--fail-reflection", "--parallel", "4"],
           fr_replies, {})
    assert sha256(d / "fr_sessions.jsonl") == DIGESTS["fr_sessions.jsonl"]
    return SimpleNamespace(dir=d, verbalize=verbalize, teacher=teacher, replies=replies,
                           fr_replies=fr_replies, origins=origins)


class StubHandler(BaseHTTPRequestHandler):
    """Answers POST /v1/chat/completions from `server.replies`; anything else is a 404.

    A request whose key has statuses left in `server.faults` gets the first of
    them, which is used up, instead of its reply.
    """

    protocol_version = "HTTP/1.1"  # keeps the client's connection open between sends
    disable_nagle_algorithm = True  # headers and body are two writes; without this each waits on an ACK

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        key = messages_key(body["messages"])
        reply = self.server.replies.get(key)
        if self.path != "/v1/chat/completions" or reply is None:
            self.send_error(404)
            return
        with self.server.lock:
            fault = self.server.faults[key].pop(0) if self.server.faults.get(key) else None
        if fault is not None:
            self.send_error(fault)
            return
        data = json.dumps({"choices": [{"message": {"role": "assistant", "content": reply}}],
                           "usage": USAGE}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args):
        pass


@pytest.fixture
def stub(monkeypatch):
    """A stub server on a free port of 127.0.0.1; set `replies` on it before the first send."""
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    server = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    server.replies, server.faults, server.lock = {}, {}, threading.Lock()
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, name="http-stub")
    thread.start()
    yield server
    server.shutdown()
    thread.join()
    server.server_close()


def endpoint(server) -> str:
    return f"http://127.0.0.1:{server.server_address[1]}/v1"


def config_for(server, directory, retries: int = 0) -> str:
    path = directory / "http.ini"
    path.write_text(f"[pipeline]\nendpoint = {endpoint(server)}\nmodel = toy\nretries = {retries}\n",
                    encoding="utf-8")
    return str(path)


def key_of(origins: dict[str, Origin], origin: Origin) -> str:
    (key,) = [key for key, sent_from in origins.items() if sent_from == origin]
    return key


def replay(mock_run, stub, directory, out, width: str, retries: int = 0) -> int:
    """Exit code of run-teacher on the recorded warm cache with `--backend http` against `stub`."""
    return main(mock_run.teacher + ["--cache", str(mock_run.dir / "cache.jsonl"), "--backend", "http",
                                    "--config", config_for(stub, directory, retries), "--parallel", width,
                                    "--out", str(out)])


@pytest.mark.parametrize("width", ["1", "4"])
def test_http_verbalize_and_run_teacher_match_the_mock(mock_run, stub, tmp_path, capsys, monkeypatch, width):
    # three run-teacher sends first get a transient status each, and are retried into the same bytes
    origins = mock_run.origins
    users = sorted({origin.subject for origin in origins.values() if origin.role is Phase.PLAN})
    stub.replies = mock_run.replies
    stub.faults = {key_of(origins, Origin(Phase.PLAN, users[0])): [429],
                   key_of(origins, Origin(Phase.REFLECTION, users[5])): [503],
                   key_of(origins, Origin(Phase.RECENT, users[9], send=1)): [408]}
    monkeypatch.setattr(recteacher.gateway, "BASE_DELAY_S", 0.0)  # every backoff sleeps 0 s
    http = ["--backend", "http", "--config", config_for(stub, tmp_path, retries=1), "--parallel", width]
    cache, out = tmp_path / "cache.jsonl", tmp_path / "sessions.jsonl"
    assert main(mock_run.verbalize + http + ["--out", str(cache)]) == 0
    assert main(mock_run.teacher + http + ["--cache", str(cache), "--out", str(out)]) == 0
    assert f"sessions: 30 -> {out}" in capsys.readouterr().out
    assert all(statuses == [] for statuses in stub.faults.values())
    assert cache.read_bytes() == (mock_run.dir / "cache.jsonl").read_bytes()
    assert sha256(out) == DIGESTS["sessions.jsonl"]


@pytest.mark.parametrize("width", ["1", "4"])
def test_http_fail_reflection_matches_the_mock(mock_run, stub, tmp_path, capsys, width):
    stub.replies = mock_run.fr_replies
    out = tmp_path / "fr_sessions.jsonl"
    assert replay(mock_run, stub, tmp_path, out, width) == 0
    capsys.readouterr()
    assert sha256(out) == DIGESTS["fr_sessions.jsonl"]


def test_a_401_fails_its_session_and_leaves_the_output(mock_run, stub, tmp_path, capsys):
    origins = mock_run.origins
    user = min(origin.subject for origin in origins.values() if origin.role is Phase.PLAN)
    stub.replies = mock_run.replies
    stub.faults = {key_of(origins, Origin(Phase.PLAN, user)): [401]}
    out = tmp_path / "sessions.jsonl"
    out.write_bytes(b"an earlier run\n")
    assert replay(mock_run, stub, tmp_path, out, "4", retries=1) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error: ")] == [
        "error: SessionError: session aborted in phase 'plan': GatewayError: auth: HTTP 401"]
    assert out.read_bytes() == b"an earlier run\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["http.ini", "sessions.jsonl"]  # no temp


def test_the_gateway_reads_the_usage_the_stub_served(stub):
    messages = [{"role": "user", "content": "Rank a and b."}]
    stub.replies = {messages_key(messages): '<JSON>["a", "b"]</JSON>'}
    gateway = Gateway(HttpBackend(GatewayConfig(endpoint=endpoint(stub), model="toy", retries=0)))
    reply = gateway.complete(chat_request(messages))
    assert reply.content == '<JSON>["a", "b"]</JSON>'
    assert reply.usage == ChatUsage(**USAGE)


def test_a_request_the_stub_does_not_know_is_one_error_line(mock_run, stub, tmp_path, capsys):
    out = tmp_path / "sessions.jsonl"
    assert replay(mock_run, stub, tmp_path, out, "1") == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    port = stub.server_address[1]
    assert errors == ["error: SessionError: session aborted in phase 'abstract': GatewayError: "
                      f"malformed_response: HTTP 404 from http://127.0.0.1:{port}/v1/chat/completions"]
    assert "Traceback" not in err
    assert not out.exists()
