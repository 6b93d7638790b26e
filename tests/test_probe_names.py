"""The benchmark's probes still find every name they wrap.

`perfbench/probes.py` replaces names where their callers look them up, so a
name renamed or deleted under `src/` would otherwise surface only in a traced
benchmark run. This test only reads perfbench.
"""

from __future__ import annotations

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
from recteacher.corpus import Corpus, ItemMeta, UserMeta
from recteacher.gateway import Gateway, GatewayConfig, ScriptBackend
from recteacher.verbalize import EvidenceKey

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


def test_probes_install_record_and_restore():
    probes = load_probes()
    before = [dict(vars(owner)) for owner in OWNERS]
    mock = probes.MockLLM()
    mock_patches = mock.install()
    tracer = probes.Tracer(mock)
    tracer_patches = tracer.install()
    try:
        # verbalize_key reaches the verbalizers through the patched module globals
        graph = make_graph({"A": {"x", "y"}, "B": {"x"}})
        corpus = Corpus(
            users={u: UserMeta(user=u) for u in "AB"},
            items={i: ItemMeta(item=i, title=i.upper()) for i in "xy"},
            sequences={},
        )
        gateway = Gateway(ScriptBackend(["<Answer>\nx and y\n</Answer>"] * 2), GatewayConfig())
        for key in (EvidenceKey("ItemCF", "x"), EvidenceKey("UserCF", "B")):
            recteacher.verbalize.verbalize_key(graph, corpus, key, gateway)
        names = {span.name for span in tracer.spans}
        assert {"verbalize.verbalize_item", "verbalize.verbalize_user", "gateway.complete",
                "prompts.render_item_line", "prompts.render_user_line",
                "prompts.evidence_user"} <= names
    finally:
        tracer_patches.restore()
        mock_patches.restore()
    after = [dict(vars(owner)) for owner in OWNERS]
    for owner, old, new in zip(OWNERS, before, after):
        assert old.keys() == new.keys(), owner
        changed = [name for name in old if old[name] is not new[name]]
        assert changed == [], (owner, changed)
