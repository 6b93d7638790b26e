"""Byte identity of every toy-corpus artifact across the full CLI chain.

Each artifact's sha256 is pinned. A change that alters an artifact on purpose
updates its digest here and says why in CHANGES.md; any other mismatch means
behaviour drifted. verbalize and run-teacher read only the catalogue, so they
give the same bytes from a corpus directory without its review file.
"""

from __future__ import annotations

from collections import Counter
import hashlib
import json
import shutil
import time

import pytest

import recteacher.cli
from conftest import steer_oracle
from recteacher.abstract import SUMMARIZER
from recteacher.cli import main
from recteacher.corpus import REVIEWS_FILE, load_catalog, require_id
from recteacher.gateway import Origin
from recteacher.graph import load_graph
from recteacher.oracle import OracleBackend
from recteacher.teacher import Phase, run_teacher
from recteacher.verbalize import EvidenceCache, all_keys

DIGESTS = {
    "corpus/users.jsonl": "fae617862225a2d32cdb39c73746d2faf55eea522b1b5679e66b74fcc26eaa9a",
    "corpus/items.jsonl": "5c7e60885be5e0c99c9796ec3de96b968161c93bfe6d0d90afcef08948fb2b2d",
    "corpus/reviews.jsonl": "63d58363a38099a7655ae91870b5f69f552d79b23865326bb43badb733966c86",
    "graph.jsonl": "387f61373eee115782556d4fb88bf44c85e85265fc62b3cfdd25d8e3e0dfed54",
    "cache.jsonl": "5fbf255bea642d59514ca9a960d3036d2fba48fb441aa9dfbc0b6eb708b0c2b6",
    "instances.jsonl": "035214db97911d3217ce2239999802bd2b248122b1210c6cb15dc9e351d93df9",
    "sessions.jsonl": "96df38f133d0f4e3afc928ebe3af0d78573247af640d0d78573243d0f69dc354",
    "fr_sessions.jsonl": "00d02a10e7d9fdc189840a760e4e1c6071a6094765f8fbb7b7b1ac7e0344a86d",
    "od_sessions.jsonl": "96df38f133d0f4e3afc928ebe3af0d78573247af640d0d78573243d0f69dc354",
    "od_cache.jsonl": "e66d7afe932e66ae7686e15ef42e540398da04dd632561e94e0dba9e14ca54dd",
    "kept.jsonl": "c0a319a9f6d5fd78cf39a23edcea78734d86ba6a6f8bc08dc33cc0b78c08b89a",
    "sft.jsonl": "ed8dbce7e9ff7efa81c25443e892c20730f84b49c383117e466719d7f26302c7",
    "report.json": "37b9bf5b87c479187f609576d4a6031c9dcc2fda9b08e0a9e2e0dba92e86c939",
    "rewards.jsonl": "e2c03fe01692d6e09753390343a870e97a7b28fe7a1753dcc3bc965c27900097",
    "rl.jsonl": "7ea6330c09fa2e41a66cc2c52363c1ade75b20e47f1555e6282f5357a1ce6e8d",
}


@pytest.fixture(scope="module")
def artifacts(toy_files, tmp_path_factory):
    """Run every command over the toy corpus with the mock backend."""
    d = tmp_path_factory.mktemp("toy")
    corpus, graph = str(d / "corpus"), str(d / "graph.jsonl")
    teacher = ["run-teacher", "--backend", "mock", "--corpus", corpus, "--graph", graph,
               "--instances", str(d / "instances.jsonl")]
    rollouts = [{"id": f"r{index:03d}", "success_count": index % 9} for index in range(40)]
    (d / "rollouts.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rollouts),
                                      encoding="utf-8")
    steps = [
        ["ingest", "--users", str(toy_files["users"]), "--items", str(toy_files["items"]),
         "--reviews", str(toy_files["reviews"]), "--out", corpus],
        ["build-graph", "--corpus", corpus, "--out", graph],
        ["verbalize", "--backend", "mock", "--corpus", corpus, "--graph", graph,
         "--out", str(d / "cache.jsonl")],
        ["make-instances", "--corpus", corpus, "--scenario", "Classic",
         "--out", str(d / "instances.jsonl")],
        teacher + ["--cache", str(d / "cache.jsonl"), "--out", str(d / "sessions.jsonl")],
        teacher + ["--cache", str(d / "cache.jsonl"), "--out", str(d / "fr_sessions.jsonl"),
                   "--fail-reflection"],
        teacher + ["--cache", str(d / "od_cache.jsonl"), "--out", str(d / "od_sessions.jsonl")],
        ["filter", "--sessions", str(d / "sessions.jsonl"), "--out", str(d / "kept.jsonl")],
        ["export-sft", "--kept", str(d / "kept.jsonl"), "--out", str(d / "sft.jsonl")],
        ["evaluate", "--sessions", str(d / "sessions.jsonl"),
         "--instances", str(d / "instances.jsonl"), "--out", str(d / "report.json")],
        ["score-rewards", "--trajectories", str(d / "kept.jsonl"),
         "--out", str(d / "rewards.jsonl")],
        ["bucket-rl", "--rollouts", str(d / "rollouts.jsonl"), "--target", "10",
         "--out", str(d / "rl.jsonl")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    return d


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_toy_artifact_digest(artifacts, name):
    assert hashlib.sha256((artifacts / name).read_bytes()).hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("name, extra", [("sessions.jsonl", []),
                                         ("fr_sessions.jsonl", ["--fail-reflection"])])
def test_run_teacher_at_four_slots_matches_the_digests(artifacts, tmp_path, name, extra):
    """Four sessions at once, each ranked oldest first and submitting whole agent passes."""
    out = tmp_path / name
    assert main(["run-teacher", "--backend", "mock", "--corpus", str(artifacts / "corpus"),
                 "--graph", str(artifacts / "graph.jsonl"),
                 "--cache", str(artifacts / "cache.jsonl"),
                 "--instances", str(artifacts / "instances.jsonl"), "--out", str(out),
                 "--parallel", "4", *extra]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[name]


def test_run_teacher_makes_the_directory_of_a_new_cache(artifacts, tmp_path):
    # the cache's first append makes its directory, so no session's on-demand fills are lost
    cache, out = tmp_path / "new" / "dir" / "od_cache.jsonl", tmp_path / "od_sessions.jsonl"
    assert main(["run-teacher", "--backend", "mock", "--corpus", str(artifacts / "corpus"),
                 "--graph", str(artifacts / "graph.jsonl"), "--cache", str(cache),
                 "--instances", str(artifacts / "instances.jsonl"), "--out", str(out)]) == 0
    for path in (cache, out):
        assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[path.name], path.name


def jitter(origin: Origin) -> None:
    """Delay a send 0-5 ms by a hash of its origin; None leaves the oracle's reply."""
    time.sleep(hashlib.sha256(repr(origin).encode()).digest()[0] / 255 * 0.005)


@pytest.mark.parametrize("width", ["2", "4"])
def test_run_teacher_matches_the_digests_when_sends_finish_out_of_order(artifacts, tmp_path,
                                                                        monkeypatch, width):
    """The mock replies at once, so sends finish in start order; jitter reorders them."""
    steer_oracle(monkeypatch, jitter)
    teacher = ["run-teacher", "--backend", "mock", "--corpus", str(artifacts / "corpus"),
               "--graph", str(artifacts / "graph.jsonl"),
               "--instances", str(artifacts / "instances.jsonl"), "--parallel", width]
    runs = {"sessions.jsonl": ["--cache", str(artifacts / "cache.jsonl")],
            "fr_sessions.jsonl": ["--cache", str(artifacts / "cache.jsonl"), "--fail-reflection"],
            "od_sessions.jsonl": ["--cache", str(tmp_path / "od_cache.jsonl")]}
    for name, extra in runs.items():
        assert main([*teacher, *extra, "--out", str(tmp_path / name)]) == 0, name
    for name in [*runs, "od_cache.jsonl"]:
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == DIGESTS[name], name


@pytest.mark.parametrize("width", ["2", "4"])
def test_verbalize_matches_the_digest_when_sends_finish_out_of_order(artifacts, tmp_path,
                                                                     monkeypatch, width):
    """Above one slot verbalize keeps one caller more than its slots; jitter reorders the sends."""
    steer_oracle(monkeypatch, jitter)
    out = tmp_path / "cache.jsonl"
    assert main(["verbalize", "--backend", "mock", "--corpus", str(artifacts / "corpus"),
                 "--graph", str(artifacts / "graph.jsonl"), "--out", str(out),
                 "--parallel", width]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS["cache.jsonl"]


# sha256 of every request the toy chain sends at --parallel 1, in send order: verbalize, then
# run-teacher on the warm cache, with --fail-reflection and on an empty cache. Each request is
# its origin and its messages, so this pins every prompt byte, not only the instance prompt.
REQUESTS = (1241, "7f3ccfcb101004b9678470afb518bef3292ba3e812f9cb4c197a75e2b2f80206")


def test_every_prompt_byte_of_the_toy_chain(artifacts, tmp_path, monkeypatch):
    requests = []

    class RecordingOracle(OracleBackend):
        def send(self, request):
            origin = request.origin
            requests.append([getattr(origin.role, "value", origin.role), origin.subject,
                             origin.send, origin.turn, list(request.messages)])
            return super().send(request)

    monkeypatch.setattr(recteacher.cli, "OracleBackend", RecordingOracle)
    corpus, graph = str(artifacts / "corpus"), str(artifacts / "graph.jsonl")
    teacher = ["run-teacher", "--backend", "mock", "--corpus", corpus, "--graph", graph,
               "--instances", str(artifacts / "instances.jsonl"), "--parallel", "1"]
    steps = [
        ["verbalize", "--backend", "mock", "--corpus", corpus, "--graph", graph,
         "--out", str(tmp_path / "cache.jsonl"), "--parallel", "1"],
        teacher + ["--cache", str(tmp_path / "cache.jsonl"), "--out", str(tmp_path / "s.jsonl")],
        teacher + ["--cache", str(tmp_path / "cache.jsonl"), "--out", str(tmp_path / "fr.jsonl"),
                   "--fail-reflection"],
        teacher + ["--cache", str(tmp_path / "od_cache.jsonl"), "--out", str(tmp_path / "od.jsonl")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    encoded = json.dumps(requests, ensure_ascii=False).encode("utf-8")
    assert (len(requests), hashlib.sha256(encoded).hexdigest()) == REQUESTS


# The sends of the first toy session at --parallel 1 with --fail-reflection, in order.
SERIAL_SESSION = [
    Origin(SUMMARIZER, "u001"),
    Origin(Phase.PLAN, "u001"),
    Origin(Phase.USER_PROFILE, "u001", 0), Origin(Phase.USER_PROFILE, "u001", 1),
    Origin(Phase.HISTORICAL, "u001", 0), Origin(Phase.HISTORICAL, "u001", 1),
    Origin(Phase.RECENT, "u001", 0), Origin(Phase.RECENT, "u001", 1),
    Origin(Phase.DIVERGENCE, "u001", 0), Origin(Phase.DIVERGENCE, "u001", 1),
    Origin(Phase.REFLECTION, "u001"),
    Origin(Phase.DIVERGENCE, "u001", 0, turn=1),
    Origin(Phase.DIVERGENCE, "u001", 1, turn=1),
    Origin(Phase.RECOMMEND, "u001", turn=1),
]


def test_a_failing_verdict_discards_one_early_ranker_per_session(artifacts, tmp_path,
                                                                  monkeypatch):
    oracles = []

    class RecordingOracle(OracleBackend):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self.origins = []
            oracles.append(self)

        def send(self, request):
            self.origins.append(request.origin)
            return super().send(request)

    monkeypatch.setattr(recteacher.cli, "OracleBackend", RecordingOracle)
    for width in ("1", "2"):
        out = tmp_path / f"fr_sessions-{width}.jsonl"
        assert main(["run-teacher", "--backend", "mock", "--corpus", str(artifacts / "corpus"),
                     "--graph", str(artifacts / "graph.jsonl"),
                     "--cache", str(artifacts / "cache.jsonl"),
                     "--instances", str(artifacts / "instances.jsonl"), "--out", str(out),
                     "--fail-reflection", "--parallel", width]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS["fr_sessions.jsonl"]
    serial, early = oracles
    sessions = len(out.read_text(encoding="utf-8").splitlines())
    assert early.sends == serial.sends + sessions
    assert [origin for origin in serial.origins if origin.subject == "u001"] == SERIAL_SESSION
    # at two slots the first session also sends its discarded ranker, under its own origin
    first = [origin for origin in early.origins if origin.subject == "u001"]
    assert Counter(first) == Counter(SERIAL_SESSION + [Origin(Phase.RECOMMEND, "u001")])


@pytest.mark.parametrize("width, unrecorded", [("1", set()), ("2", {(Phase.RECOMMEND, 0)})])
def test_every_teacher_send_has_the_phase_and_turn_of_a_record(artifacts, tmp_path, monkeypatch,
                                                               width, unrecorded):
    """A record's (phase, turn) is the (role, turn) of its sends; only a discarded ranker's match no record."""
    origins, logs = [], {}

    class RecordingOracle(OracleBackend):
        def send(self, request):
            origins.append(request.origin)
            return super().send(request)

    def recording_run_teacher(*args):
        log = run_teacher(*args)
        logs[args[0].user] = log  # the session's context
        return log

    monkeypatch.setattr(recteacher.cli, "OracleBackend", RecordingOracle)
    monkeypatch.setattr(recteacher.cli, "run_teacher", recording_run_teacher)
    assert main(["run-teacher", "--backend", "mock", "--corpus", str(artifacts / "corpus"),
                 "--graph", str(artifacts / "graph.jsonl"),
                 "--cache", str(artifacts / "cache.jsonl"),
                 "--instances", str(artifacts / "instances.jsonl"),
                 "--out", str(tmp_path / "fr_sessions.jsonl"),
                 "--fail-reflection", "--parallel", width]) == 0
    teacher = [origin for origin in origins if isinstance(origin.role, Phase)]
    assert logs and {origin.subject for origin in teacher} == set(logs)
    for user, log in logs.items():
        recorded = {(record.phase, record.turn) for record in log.phases}
        sent = {(origin.role, origin.turn) for origin in teacher if origin.subject == user}
        assert recorded <= sent, user
        assert sent - recorded == unrecorded, user


@pytest.fixture(scope="module")
def catalogue_dir(artifacts, tmp_path_factory):
    """A copy of the toy corpus directory without its review file."""
    corpus = tmp_path_factory.mktemp("catalogue") / "corpus"
    shutil.copytree(artifacts / "corpus", corpus)
    (corpus / REVIEWS_FILE).unlink()
    return corpus


def test_verbalize_and_run_teacher_read_only_the_catalogue(artifacts, catalogue_dir, tmp_path):
    graph = str(artifacts / "graph.jsonl")
    teacher = ["run-teacher", "--backend", "mock", "--corpus", str(catalogue_dir), "--graph", graph,
               "--instances", str(artifacts / "instances.jsonl")]
    steps = [
        ["verbalize", "--backend", "mock", "--corpus", str(catalogue_dir), "--graph", graph,
         "--out", str(tmp_path / "cache.jsonl")],
        teacher + ["--cache", str(artifacts / "cache.jsonl"), "--out", str(tmp_path / "sessions.jsonl")],
        teacher + ["--cache", str(tmp_path / "od_cache.jsonl"),
                   "--out", str(tmp_path / "od_sessions.jsonl")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    for name in ("cache.jsonl", "sessions.jsonl", "od_cache.jsonl", "od_sessions.jsonl"):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == DIGESTS[name], name


@pytest.mark.parametrize("command", ["build-graph", "make-instances"])
def test_commands_that_read_reviews_fail_cleanly_without_them(catalogue_dir, tmp_path, capsys,
                                                               command):
    assert main([command, "--corpus", str(catalogue_dir), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and REVIEWS_FILE in errors[0]
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_loaded_ids_are_the_catalogue_strings(artifacts):
    catalog = load_catalog(artifacts / "corpus")
    graph = load_graph(artifacts / "graph.jsonl")
    cache = EvidenceCache.load(artifacts / "cache.jsonl")
    item_ids = {item: item for item in catalog.items}
    user_ids = {user: user for user in catalog.users}

    graph_items = [item for items in graph.user_adj.values() for item in items]
    assert graph_items and all(item is item_ids[item] for item in graph_items)
    assert all(item is item_ids[item] for item in graph.item_adj)
    assert all(user is user_ids[user] for user in graph.user_adj)

    entries = [cache.lookup(key) for key in all_keys(graph)]
    neighbors = [n for evidence in entries for n in evidence.source_neighbors]
    assert neighbors and all(n is item_ids[n] for n in neighbors)
    ids = {"ItemCF": item_ids, "UserCF": user_ids}
    assert all(e.key.anchor is ids[e.key.name][e.key.anchor] for e in entries)
    assert len({id(e.key.name) for e in entries}) <= 2

    known = next(iter(item_ids))
    fresh = "".join(list(known))
    assert fresh == known and fresh is not known
    assert require_id(fresh, "item") is known
