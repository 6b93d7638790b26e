"""The benchmark's probes still find every name they wrap.

`perfbench/probes.py` replaces names where their callers look them up, so a
name renamed or deleted under `src/` would otherwise surface only in a traced
benchmark run. A layer the program stops reaching through its probed name
(say, an agent called past `teacher.plan`) would read zero in the layer
metrics, so a toy session must leave a span at every one. These tests only
read perfbench.
"""

from __future__ import annotations

import contextlib
import importlib.util
import sys

import recteacher.cli
import recteacher.corpus
import recteacher.gateway
import recteacher.oracle
import recteacher.prompts
import recteacher.rewards
import recteacher.teacher
import recteacher.trajectory
import recteacher.verbalize
from recteacher.cli import main
from recteacher.corpus import Corpus, ItemMeta, UserMeta
from recteacher.gateway import Gateway, GatewayConfig, ScriptBackend
from recteacher.tags import ToolCall

from cfref import make_graph
from conftest import REPO_ROOT

# Every module and class a probe patches.
OWNERS = (
    recteacher.cli,
    recteacher.corpus,
    recteacher.gateway.Gateway,
    recteacher.oracle.OracleBackend,
    recteacher.prompts,
    recteacher.rewards,
    recteacher.teacher,
    recteacher.teacher.ToolRunner,
    recteacher.trajectory,
    recteacher.verbalize,
    recteacher.verbalize.EvidenceCache,
)


def load_probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes", REPO_ROOT / "perfbench" / "probes.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def tracing():
    """The benchmark's probes installed for the block; yields the tracer."""
    probes = load_probes()
    mock = probes.MockLLM()
    mock_patches = mock.install()
    tracer = probes.Tracer(mock)
    tracer_patches = tracer.install()
    try:
        yield tracer
    finally:
        tracer_patches.restore()
        mock_patches.restore()


def test_probes_install_record_and_restore():
    before = [dict(vars(owner)) for owner in OWNERS]
    with tracing() as tracer:
        # verbalize_key reaches the verbalizers through the patched module globals
        graph = make_graph({"A": {"x", "y"}, "B": {"x"}})
        corpus = Corpus(
            users={u: UserMeta(user=u) for u in "AB"},
            items={i: ItemMeta(item=i, title=i.upper()) for i in "xy"},
            sequences={},
        )
        gateway = Gateway(ScriptBackend(["<Answer>\nx and y\n</Answer>"] * 2), GatewayConfig())
        for key in (ToolCall("ItemCF", "x"), ToolCall("UserCF", "B")):
            recteacher.verbalize.verbalize_key(graph, corpus, key, gateway)
        names = {span.name for span in tracer.spans}
        assert {"verbalize.verbalize_item", "verbalize.verbalize_user", "gateway.complete",
                "prompts.render_item_line", "prompts.render_user_line",
                "prompts.evidence_user"} <= names
    after = [dict(vars(owner)) for owner in OWNERS]
    for owner, old, new in zip(OWNERS, before, after):
        assert old.keys() == new.keys(), owner
        changed = [name for name in old if old[name] is not new[name]]
        assert changed == [], (owner, changed)


def test_probes_see_every_layer_of_a_session(toy_files, tmp_path):
    corpus, graph, cache, instances, sessions = (
        str(tmp_path / name)
        for name in ("corpus", "graph.jsonl", "cache.jsonl", "instances.jsonl", "sessions.jsonl")
    )
    steps = [
        ["ingest", "--users", str(toy_files["users"]), "--items", str(toy_files["items"]),
         "--reviews", str(toy_files["reviews"]), "--out", corpus],
        ["build-graph", "--corpus", corpus, "--out", graph],
        ["verbalize", "--backend", "mock", "--corpus", corpus, "--graph", graph, "--out", cache],
        ["make-instances", "--corpus", corpus, "--limit", "2", "--out", instances],
        ["run-teacher", "--backend", "mock", "--corpus", corpus, "--graph", graph, "--cache", cache,
         "--instances", instances, "--out", sessions, "--fail-reflection"],
        ["score-rewards", "--trajectories", sessions, "--out", str(tmp_path / "rewards.jsonl")],
    ]
    with tracing() as tracer:
        for argv in steps:
            assert main(argv) == 0, argv
    names = {span.name for span in tracer.spans}
    assert {"teacher.plan", "teacher.execute_subtask", "teacher.reflect", "teacher.rank",
            "teacher.tool_run", "abstract.abstract", "trajectory.parse",
            "rewards.composite_reward"} <= names


def test_only_an_on_demand_fill_puts_evidence_inside_a_tool_call(toy_files, tmp_path):
    """The benchmark counts a fill as a `teacher.tool_run` span with a `verbalize.cache_put` child."""
    corpus, graph, cache, instances = (
        str(tmp_path / name) for name in ("corpus", "graph.jsonl", "cache.jsonl", "instances.jsonl")
    )
    on_demand = tmp_path / "od.ini"
    on_demand.write_text("[pipeline]\non_demand_verbalize = true\n", encoding="utf-8")
    for argv in (
        ["ingest", "--users", str(toy_files["users"]), "--items", str(toy_files["items"]),
         "--reviews", str(toy_files["reviews"]), "--out", corpus],
        ["build-graph", "--corpus", corpus, "--out", graph],
        ["verbalize", "--backend", "mock", "--corpus", corpus, "--graph", graph, "--out", cache],
        ["make-instances", "--corpus", corpus, "--limit", "2", "--out", instances],
    ):
        assert main(argv) == 0, argv
    teacher = ["run-teacher", "--backend", "mock", "--corpus", corpus, "--graph", graph,
               "--instances", instances, "--out", str(tmp_path / "sessions.jsonl")]

    def fills(argv):
        with tracing() as tracer:
            assert main(argv) == 0, argv
        runs = {span.id for span in tracer.spans if span.name == "teacher.tool_run"}
        assert runs
        return sum(1 for span in tracer.spans
                   if span.name == "verbalize.cache_put" and span.parent in runs)

    assert fills(teacher + ["--cache", cache]) == 0
    assert fills(teacher + ["--config", str(on_demand),
                            "--cache", str(tmp_path / "od_cache.jsonl")]) >= 1
