"""Byte identity of every toy-corpus artifact across the full CLI chain.

Each artifact's sha256 is pinned. A change that alters an artifact on purpose
updates its digest here and says why in CHANGES.md; any other mismatch means
behaviour drifted.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from recteacher.cli import main

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
    (d / "od.ini").write_text("[pipeline]\non_demand_verbalize = true\n", encoding="utf-8")
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
        teacher + ["--config", str(d / "od.ini"), "--cache", str(d / "od_cache.jsonl"),
                   "--out", str(d / "od_sessions.jsonl")],
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
