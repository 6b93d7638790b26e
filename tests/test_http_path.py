"""The live path through the CLI: verbalize and run-teacher with `--backend http` against a local stub.

The stub replays the toy oracle's replies, keyed by the sha256 of each
request's messages, so the cache and sessions files must match the mock's
byte for byte at any `--parallel`. A request the stub does not know gets a 404.
"""

from __future__ import annotations

import hashlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import recteacher.cli
from recteacher.cli import main
from recteacher.oracle import OracleBackend


def messages_key(messages) -> str:
    encoded = json.dumps(messages, ensure_ascii=False, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


@pytest.fixture(scope="module")
def mock_run(toy_files, tmp_path_factory):
    """The toy chain up to run-teacher on the mock, and the reply to each distinct request it sent."""
    d = tmp_path_factory.mktemp("http")
    replies: dict[str, set[str]] = {}

    class RecordingOracle(OracleBackend):
        def send(self, request):
            reply = super().send(request)
            replies.setdefault(messages_key(list(request.messages)), set()).add(reply.content)
            return reply

    corpus, graph = str(d / "corpus"), str(d / "graph.jsonl")
    assert main(["ingest", "--users", str(toy_files["users"]), "--items", str(toy_files["items"]),
                 "--reviews", str(toy_files["reviews"]), "--out", corpus]) == 0
    assert main(["build-graph", "--corpus", corpus, "--out", graph]) == 0
    assert main(["make-instances", "--corpus", corpus, "--out", str(d / "instances.jsonl")]) == 0
    verbalize = ["verbalize", "--corpus", corpus, "--graph", graph]
    teacher = ["run-teacher", "--corpus", corpus, "--graph", graph,
               "--instances", str(d / "instances.jsonl")]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recteacher.cli, "OracleBackend", RecordingOracle)
        assert main(verbalize + ["--backend", "mock", "--out", str(d / "cache.jsonl")]) == 0
        assert main(teacher + ["--backend", "mock", "--cache", str(d / "cache.jsonl"),
                               "--out", str(d / "sessions.jsonl")]) == 0
    assert replies and all(len(texts) == 1 for texts in replies.values())
    return d, verbalize, teacher, {key: texts.pop() for key, texts in replies.items()}


class StubHandler(BaseHTTPRequestHandler):
    """Answers POST /v1/chat/completions from `server.replies`; anything else is a 404."""

    protocol_version = "HTTP/1.1"  # keeps the client's connection open between sends
    disable_nagle_algorithm = True  # headers and body are two writes; without this each waits on an ACK

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        reply = self.server.replies.get(messages_key(body["messages"]))
        if self.path != "/v1/chat/completions" or reply is None:
            self.send_error(404)
            return
        data = json.dumps({"choices": [{"message": {"role": "assistant", "content": reply}}]}).encode("utf-8")
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
    server.replies = {}
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, name="http-stub")
    thread.start()
    yield server
    server.shutdown()
    thread.join()
    server.server_close()


def config_for(server, directory) -> str:
    path = directory / "http.ini"
    path.write_text(f"[pipeline]\nendpoint = http://127.0.0.1:{server.server_address[1]}/v1\n"
                    "model = toy\nretries = 0\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("width", ["1", "4"])
def test_http_verbalize_and_run_teacher_match_the_mock(mock_run, stub, tmp_path, capsys, width):
    d, verbalize, teacher, replies = mock_run
    stub.replies = replies
    http = ["--backend", "http", "--config", config_for(stub, tmp_path), "--parallel", width]
    cache, out = tmp_path / "cache.jsonl", tmp_path / "sessions.jsonl"
    assert main(verbalize + http + ["--out", str(cache)]) == 0
    assert main(teacher + http + ["--cache", str(cache), "--out", str(out)]) == 0
    assert f"sessions: 30 -> {out}" in capsys.readouterr().out
    assert cache.read_bytes() == (d / "cache.jsonl").read_bytes()
    assert out.read_bytes() == (d / "sessions.jsonl").read_bytes()


def test_a_request_the_stub_does_not_know_is_one_error_line(mock_run, stub, tmp_path, capsys):
    d, _verbalize, teacher, _replies = mock_run
    out = tmp_path / "sessions.jsonl"
    assert main(teacher + ["--backend", "http", "--config", config_for(stub, tmp_path), "--parallel", "1",
                           "--cache", str(d / "cache.jsonl"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    port = stub.server_address[1]
    assert errors == ["error: SessionError: session aborted in phase 'abstract': GatewayError: "
                      f"malformed_response: HTTP 404 from http://127.0.0.1:{port}/v1/chat/completions"]
    assert "Traceback" not in err
    assert not out.exists()
