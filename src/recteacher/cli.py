"""Pipeline entry point: one subcommand per stage, shared config file.

Stages chain through plain line-delimited artifacts so every command is
restartable and two runs with the same config, seed, and mock backend
produce byte-identical outputs (with a scripted backend, at --parallel 1). All
writes go through temp-file-then-rename, a full `verbalize` rebuild included:
it replaces the cache only once every key is verbalized. The documented
exception is appending to an existing cache one record at a time:
`verbalize --only-missing` appends each key as it lands, so keys filled before
a crash survive it. JSONL artifacts are streamed to their temp file one record
at a time.
run-teacher handles each session when its turn in instance order comes,
whatever order the concurrent sessions finished in: it appends the session's
on-demand fills to the cache and writes its record, so the fills of a failed
session, or of one not yet written, are lost. Every instance, session, kept
and rollout file (or directory of .jsonl shards) is read through
`util.decode_jsonl`, with one decoder per record kind and each file decoded
whole before the command writes. A record with a field `util.require_field`
rejects (missing, or not of its JSON type: none is coerced), that repeats an
id of any earlier record, or an instance whose history names another user,
fails the command with one `MalformedRecord: <path>:<line>: <reason>` line. Flags, the --script file
included, are checked before any input file is read. run-teacher needs the
graph (--graph or graph_path) and loads it before any session starts. A
missing evidence cache is an empty one; every miss is filled from the graph,
and an anchor the graph does not know gets a fixed sentence.
verbalize and run-teacher read only the catalogue of the corpus directory
(its user and item files). Before any send they refuse a graph, and
run-teacher an instance, that names a user or item the catalogue lacks.
build-graph and make-instances read and check all three files.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence, TypeVar

from .config import PipelineConfig, load_config
from .corpus import (
    Catalog,
    decode_interaction,
    ingest,
    interaction_record,
    load_catalog,
    load_corpus,
    require_id,
    save_corpus,
)
from .errors import EmptyInput, PipelineError
from .evaluate import (
    DEFAULT_KS,
    EvalInstance,
    EvalReport,
    Scenario,
    ScenarioThresholds,
    build_instance,
    evaluate,
    matches_scenario,
)
from .gateway import Gateway, GatewayConfig, HttpBackend, ScriptBackend
from .graph import InteractionGraph, build_graph, load_graph, save_graph
from .oracle import OracleBackend
from .rewards import Bucket, bucket, composite_reward, compose_rl_set, largest_remainder
from .teacher import (AGENT_NAMES, PhaseRecord, SessionLog, TeacherConfig, ToolRunner, build_context,
                      phase_name, run_teacher)
from .trajectory import export_sft, serialize, top1_hit
from .util import atomic_path, decode_jsonl, require_field, unique_ids, write_atomic, write_jsonl_atomic
from .verbalize import EvidenceCache, verbalize_key, warm_cache

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FAILURE = 1
# usage errors exit 2 via argparse itself

BACKEND_MOCK = "mock"
BACKEND_HTTP = "http"

T = TypeVar("T")


# ---------------------------------------------------------------------------
# shared plumbing


def _required_path(flag_value: str | None, config_value: str, what: str) -> str:
    """Resolve a path from the CLI flag, falling back to the config file."""
    if flag_value:
        return flag_value
    if config_value:
        return config_value
    raise PipelineError(f"no {what} path given (pass the flag or set it in the config file)")


# Least value of each count flag; the config file's own bounds are checked on load.
_FLAG_MINIMUM = {"parallel": 1, "limit": 1, "target": 0}


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """The config as the flags override it; every count and backend flag is checked first.

    So is the --script file, whose replies then stand in `args.script`.
    """
    for name, minimum in _FLAG_MINIMUM.items():
        value = getattr(args, name, None)
        if value is not None and value < minimum:
            raise PipelineError(f"--{name} must be >= {minimum}")
    backend = getattr(args, "backend", None)  # None on a command that sends nothing
    if backend is not None:
        if args.script and backend != BACKEND_MOCK:
            raise PipelineError("--script requires --backend mock")
        if args.fail_reflection and (args.script or backend != BACKEND_MOCK):
            raise PipelineError("--fail-reflection requires --backend mock without --script")
        args.script = _read_script(args.script) if args.script else None
    config = load_config(Path(args.config) if args.config else None)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.parallel is not None:
        config = replace(config, max_parallel=args.parallel)
    if backend == BACKEND_HTTP and not config.endpoint:
        raise PipelineError(
            "http backend needs an endpoint (set `endpoint` in the config file or use --backend mock)"
        )
    return config


def _read_script(path: str) -> list[str]:
    """The replies of a --script file: a JSON array of reply strings."""
    try:
        replies = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise PipelineError(f"script file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(replies, list) or not all(isinstance(r, str) for r in replies):
        raise PipelineError(f"script file {path!r} must be a JSON array of reply strings")
    return replies


def _make_gateway(args: argparse.Namespace, config: PipelineConfig,
                  ground_truth: Mapping[str, str] | None = None) -> Gateway:
    """A gateway on the backend the flags name; `_resolve_config` has checked them."""
    gateway_config = config.view(GatewayConfig)
    if args.backend == BACKEND_HTTP:
        backend: Any = HttpBackend(gateway_config)
    elif args.script is not None:
        backend = ScriptBackend(args.script)
    else:
        backend = OracleBackend(ground_truth=ground_truth, fail_reflection=args.fail_reflection)
    return Gateway(backend, gateway_config)


def _load_graph(args: argparse.Namespace, config: PipelineConfig, catalog: Catalog) -> InteractionGraph:
    """The graph of --graph or graph_path; a user or item the catalogue lacks is a PipelineError."""
    path = _required_path(args.graph, config.graph_path, "graph")
    graph = load_graph(path)
    try:
        catalog.require_known(graph.user_adj, graph.item_adj)
    except ValueError as exc:
        raise PipelineError(f"graph {path}: {exc}") from exc
    return graph


def _read_records(path: str | Path, decode: Callable[[dict], T], kind: str) -> Iterator[tuple[str, T]]:
    """(id, decode(record)) per record of one .jsonl file or of every .jsonl in a directory.

    Files are read in name order. Every record's `id` must be a string, and is
    read here and nowhere else. A record whose id is missing or not a string,
    that `decode` rejects, or that repeats an id of any record before it raises
    MalformedRecord naming its file and line.
    """
    base = Path(path)
    files = sorted(base.glob("*.jsonl")) if base.is_dir() else [base]
    if not files:
        raise EmptyInput(f"no .jsonl {kind} files under {base}")
    with_id = unique_ids(lambda record: (require_field(record, "id", str), decode(record)), f"{kind} id")
    for file in files:
        for _lineno, pair in decode_jsonl(file, with_id):
            yield pair


# ---------------------------------------------------------------------------
# instance records


def _instance_record(instance: EvalInstance, seed: int) -> dict:
    return {
        "id": f"{instance.scenario.value}-{instance.user}",
        "user": instance.user,
        "scenario": instance.scenario.value,
        "history": [interaction_record(it) for it in instance.history],
        "candidates": list(instance.candidates),
        "ground_truth": instance.ground_truth,
        "seed": seed,
    }


def _decode_instance(record: dict) -> EvalInstance:
    """The instance of an instance record; ValueError says what is wrong with it."""
    return EvalInstance(
        user=require_id(record.get("user"), "user"),
        history=tuple(decode_interaction(r) for r in require_field(record, "history", list)),
        candidates=tuple(require_id(c, "candidate") for c in require_field(record, "candidates", list)),
        ground_truth=require_id(record.get("ground_truth"), "ground_truth"),
        scenario=Scenario(require_field(record, "scenario", str, Scenario.CLASSIC.value)),
    )


# ---------------------------------------------------------------------------
# session records


def _phase_record(record: PhaseRecord) -> dict:
    return {
        "phase": phase_name(record.phase, record.turn),
        "kind": AGENT_NAMES.get(record.phase),
        "thinking": record.thinking,
        "tool_events": [
            {"call": {"name": call.name, "arguments": call.arguments}, "result": result}
            for call, result in record.tool_events
        ],
        "payload": record.payload,
    }


def _session_record(session_id: str, instance: EvalInstance, prompt: str, log: SessionLog) -> dict:
    return {
        "id": session_id,
        "user": instance.user,
        "scenario": instance.scenario.value,
        "ground_truth": instance.ground_truth,
        "candidates": list(instance.candidates),
        "prompt": prompt,
        "phases": [_phase_record(p) for p in log.phases],
        "final_ranking": list(log.final_ranking),
        "trajectory": serialize(log),
    }


def _decode_session(record: dict) -> dict:
    """What filter keeps of a session record on a top-1 hit, id aside: all of a kept record."""
    return {
        "user": require_id(record.get("user"), "user"),
        "ground_truth": require_id(record.get("ground_truth"), "ground_truth"),
        "prompt": require_field(record, "prompt", str),
        "trajectory": require_field(record, "trajectory", str),
    }


def _decode_scored(record: dict) -> tuple[str, str | None]:
    """(trajectory, ground truth or None) of a session, kept or {id, trajectory} record.

    The ground truth is None only when the record has no `ground_truth` key.
    """
    ground_truth = require_id(record["ground_truth"], "ground_truth") if "ground_truth" in record else None
    return require_field(record, "trajectory", str), ground_truth


def _decode_ranking(record: dict) -> list[str]:
    """The final ranking of a session record."""
    return [require_id(item, "final_ranking entry") for item in require_field(record, "final_ranking", list)]


def _decode_rollout(group_size: int, record: dict) -> Bucket:
    """The difficulty bucket of an {id, success_count} rollout record."""
    return bucket(require_field(record, "success_count", int), group_size)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ingest(args: argparse.Namespace, config: PipelineConfig) -> None:
    corpus = ingest(args.users, args.items, args.reviews)
    save_corpus(corpus, args.out)
    print(
        f"ingested {len(corpus.users)} users, {len(corpus.items)} items, "
        f"{corpus.interaction_count()} interactions -> {args.out}"
    )


def _cmd_build_graph(args: argparse.Namespace, config: PipelineConfig) -> None:
    corpus = load_corpus(_required_path(args.corpus, config.corpus_dir, "corpus"))
    graph = build_graph(corpus)
    out = _required_path(args.out, config.graph_path, "graph output")
    save_graph(graph, out)
    print(
        f"graph: {len(graph.user_adj)} users, {len(graph.item_adj)} items, "
        f"{graph.edge_count()} edges -> {out}"
    )


def _cmd_verbalize(args: argparse.Namespace, config: PipelineConfig) -> None:
    catalog = load_catalog(_required_path(args.corpus, config.corpus_dir, "corpus"))
    graph = _load_graph(args, config, catalog)
    out = Path(_required_path(args.out, config.cache_path, "cache output"))
    gateway = _make_gateway(args, config)
    only_missing = args.only_missing and out.exists()
    # --only-missing appends to --out as each key lands; a full rebuild fills a
    # temp file that replaces --out only once every key is verbalized.
    with (nullcontext(out) if only_missing else atomic_path(out)) as path:
        cache = EvidenceCache.load(path)
        before = len(cache)
        failed = warm_cache(graph, catalog, gateway, cache, k=config.neighbor_k, domain=config.domain)
        for key, exc in failed:
            logger.warning("verbalization failed for %s %s: %s", key.name, key.anchor, exc)
        print(f"cache entries: {len(cache)} ({len(cache) - before} new, {len(failed)} failed) -> {out}")
        if failed:
            key, exc = failed[0]
            raise PipelineError(f"{len(failed)} keys failed to verbalize; "
                                f"first: {key.name}:{key.anchor}: {type(exc).__name__}: {exc}")


def _cmd_make_instances(args: argparse.Namespace, config: PipelineConfig) -> None:
    corpus = load_corpus(_required_path(args.corpus, config.corpus_dir, "corpus"))
    scenario = Scenario(args.scenario)
    thresholds = config.view(ScenarioThresholds)
    records = []
    for user in sorted(corpus.sequences):
        if not matches_scenario(corpus, user, scenario, thresholds):
            continue
        # per-user seed string keeps negatives stable when the user set changes
        instance = build_instance(corpus, user, scenario, rng_seed=f"{config.seed}:{user}")
        records.append(_instance_record(instance, config.seed))
        if args.limit is not None and len(records) >= args.limit:
            break
    if not records:
        raise EmptyInput(f"no users match scenario {scenario.value!r}")
    write_jsonl_atomic(args.out, records)
    print(f"instances: {len(records)} ({scenario.value}) -> {args.out}")


def _cmd_run_teacher(args: argparse.Namespace, config: PipelineConfig) -> None:
    catalog = load_catalog(_required_path(args.corpus, config.corpus_dir, "corpus"))
    cache_path = Path(_required_path(args.cache, config.cache_path, "cache"))
    cache = EvidenceCache.load(cache_path)
    logger.info("loaded evidence cache: %d entries from %s", len(cache), cache_path)

    def decode_known(record: dict) -> EvalInstance:
        instance = _decode_instance(record)
        catalog.require_known((instance.user,), [*(i.item for i in instance.history), *instance.candidates])
        return instance

    instances = list(_read_records(args.instances, decode_known, "instance"))  # before any send
    if not instances:
        raise EmptyInput(f"no instances in {args.instances}")
    gateway = _make_gateway(args, config, ground_truth={instance.user: instance.ground_truth
                                                        for _, instance in instances})

    graph = _load_graph(args, config, catalog)
    tools = ToolRunner(cache, partial(verbalize_key, graph, catalog,
                                      k=config.neighbor_k, domain=config.domain))
    teacher_config = config.view(TeacherConfig)

    # Above one slot (the runner reads the width off the session's handle) a session starts
    # its user's evidence beside its history abstraction and plan, which leave a slot idle.
    def run_one(ranked: tuple[int, tuple[str, EvalInstance]]) -> tuple[SessionLog, dict]:
        rank, (session_id, instance) = ranked
        session_gateway = gateway.for_session(rank)
        with tools.prefetch(instance.user, session_gateway):
            context = build_context(instance, catalog, session_gateway, teacher_config)
            log = run_teacher(context, teacher_config, session_gateway, tools)
        return log, _session_record(session_id, instance, context.prompt, log)

    # Sessions are ranked in instance order, so a freed gateway slot goes to
    # the earliest-started session; every fill, a prefetch or an agent's, goes
    # through the session's handle, and the session joins its prefetch before
    # it ends. Sessions run concurrently, but are consumed in instance order:
    # each session's on-demand fills are appended to the cache and its record
    # is streamed to the temp file when its turn comes. The cache file matches
    # a serial run byte for byte (a prefetch no session names is not written),
    # and a failed session leaves the fills of every session before it, not
    # its own; sessions not yet started when it fails are cancelled.
    def session_records() -> Iterator[dict]:
        with ThreadPoolExecutor(config.max_parallel) as pool:
            for log, session_record in pool.map(run_one, enumerate(instances)):
                tools.persist(log)
                yield session_record

    try:
        count = write_jsonl_atomic(args.out, session_records())
    finally:
        logger.info("evidence prefetches: %d started, %d named by no session, %d failed",
                    tools.prefetches_started, tools.prefetches_unnamed, tools.prefetches_failed)
    print(f"sessions: {count} -> {args.out}")


def _cmd_filter(args: argparse.Namespace, config: PipelineConfig) -> None:
    kept = []
    total = unparsable = 0
    for session_id, record in _read_records(args.sessions, _decode_session, "session"):
        total += 1
        hit = top1_hit(record["trajectory"], record["ground_truth"])
        if hit is None:
            unparsable += 1
        elif hit:
            kept.append({"id": session_id, **record})
    if unparsable:
        logger.warning("filter dropped %d unparsable trajectories", unparsable)
    write_jsonl_atomic(args.out, kept)
    print(f"kept {len(kept)} / {total}")


def _cmd_export_sft(args: argparse.Namespace, config: PipelineConfig) -> None:
    count = export_sft({session_id: (record["prompt"], record["trajectory"]) for session_id, record
                        in _read_records(args.kept, _decode_session, "session")}, Path(args.out))
    print(f"exported {count} records -> {args.out}")


def _cmd_score_rewards(args: argparse.Namespace, config: PipelineConfig) -> None:
    ground_truth_by_id = {instance_id: instance.ground_truth for instance_id, instance
                          in _read_records(args.instances, _decode_instance, "instance")
                          } if args.instances else {}
    out_records = []
    for record_id, (trajectory, ground_truth) in _read_records(args.trajectories, _decode_scored,
                                                                "session"):
        if ground_truth is None:
            ground_truth = ground_truth_by_id.get(record_id)
        if ground_truth is None:
            raise PipelineError(f"no ground truth for trajectory {record_id!r} (pass --instances)")
        breakdown = composite_reward(trajectory, ground_truth)
        out_records.append({
            "id": record_id,
            "format_score": breakdown.format_score,
            "outcome_score": str(breakdown.outcome_score),
            "outcome_value": float(breakdown.outcome_score),
            "total": str(breakdown.total),
            "total_value": float(breakdown.total),
        })
    write_jsonl_atomic(args.out, out_records)
    print(f"scored {len(out_records)} trajectories -> {args.out}")


def _cmd_bucket_rl(args: argparse.Namespace, config: PipelineConfig) -> None:
    by_bucket: dict[Bucket, list[str]] = {b: [] for b in Bucket}
    bucket_of = dict(_read_records(args.rollouts, partial(_decode_rollout, config.group_size),
                                   "rollout"))
    for record_id, which in bucket_of.items():
        by_bucket[which].append(record_id)

    target = args.target if args.target is not None else config.rl_target
    chosen = compose_rl_set(by_bucket, target_total=target, ratio=config.rl_ratio,
                            rng_seed=config.seed)
    quotas = largest_remainder(target, config.rl_ratio)
    write_jsonl_atomic(args.out, [{"id": cid, "bucket": bucket_of[cid].value} for cid in chosen])
    print(
        f"quotas easy/medium/hard: {quotas[0]}/{quotas[1]}/{quotas[2]}; "
        f"excluded {len(by_bucket[Bucket.EXCLUDED])}; selected {len(chosen)} -> {args.out}"
    )


def _report_record(report: EvalReport, scenario: str) -> dict:
    return {
        "scenario": scenario,
        "per_k": {
            str(k): {"fraction": str(value), "value": float(value)}
            for k, value in sorted(report.per_k.items())
        },
        "hr_avg": {"fraction": str(report.hr_avg), "value": float(report.hr_avg)},
        "n": report.n,
    }


def _report_row(name: str, report: EvalReport) -> str:
    cells = [f"{name:<14}", f"{report.n:>4}"]
    cells.extend(f"{float(report.per_k[k]):>8.4f}" for k in sorted(report.per_k))
    cells.append(f"{float(report.hr_avg):>8.4f}")
    return "  ".join(cells)


def _cmd_evaluate(args: argparse.Namespace, config: PipelineConfig) -> None:
    instances = dict(_read_records(args.instances, _decode_instance, "instance"))
    all_pairs: list[tuple[list[str], EvalInstance]] = []
    by_scenario: dict[str, list[tuple[list[str], EvalInstance]]] = {}
    for session_id, ranking in _read_records(args.sessions, _decode_ranking, "session"):
        if session_id not in instances:
            raise PipelineError(f"session {session_id!r} has no matching instance record")
        instance = instances[session_id]
        all_pairs.append((ranking, instance))
        by_scenario.setdefault(instance.scenario.value, []).append((ranking, instance))

    overall = evaluate(all_pairs, DEFAULT_KS)
    scenario_reports = {name: evaluate(pairs, DEFAULT_KS) for name, pairs in sorted(by_scenario.items())}

    report = {
        "overall": _report_record(overall, "Overall"),
        "scenarios": {name: _report_record(rep, name) for name, rep in scenario_reports.items()},
    }
    write_atomic(args.out, json.dumps(report, ensure_ascii=False, indent=2, sort_keys=True) + "\n")

    header = ["scenario".ljust(14), "   n"]
    header.extend(f"{'HR@' + str(k):>8}" for k in DEFAULT_KS)
    header.append(f"{'HR_avg':>8}")
    print("  ".join(header))
    print(_report_row("Overall", overall))
    for name, rep in scenario_reports.items():
        print(_report_row(name, rep))
    print(f"report -> {args.out}")


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="pipeline config file (INI)")
    common.add_argument("--seed", type=int, help="override the configured random seed")
    common.add_argument("--parallel", type=int,
                        help="at most N sessions at once and at most N gateway calls in flight, "
                             "a session's analysis agents included; a freed call slot goes to "
                             "the earliest-started session "
                             f"(default from config, {PipelineConfig.max_parallel})")
    common.add_argument("--verbose", action="store_true", help="debug logging")

    backend = argparse.ArgumentParser(add_help=False)
    backend.add_argument("--backend", choices=[BACKEND_MOCK, BACKEND_HTTP], default=BACKEND_HTTP,
                         help="LLM backend: a deterministic offline mock or the configured http endpoint")
    backend.add_argument("--script",
                         help="JSON array of canned replies, handed out in send order (needs "
                              "--backend mock); reproducible only at --parallel 1, even within "
                              "one session, whose agents send side by side")
    backend.set_defaults(fail_reflection=False)  # only run-teacher has the flag

    parser = argparse.ArgumentParser(
        prog="recteacher",
        description="Teacher-trajectory pipeline for tool-using recommendation agents",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common],
                       help="validate the three record files and write a normalized corpus")
    p.add_argument("--users", required=True, help="users.jsonl")
    p.add_argument("--items", required=True, help="items.jsonl")
    p.add_argument("--reviews", required=True, help="reviews.jsonl")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("build-graph", parents=[common],
                       help="build the bipartite interaction graph from a corpus")
    p.add_argument("--corpus", help="corpus directory")
    p.add_argument("--out", help="graph file")
    p.set_defaults(handler=_cmd_build_graph)

    p = sub.add_parser("verbalize", parents=[common, backend],
                       help="precompute natural-language evidence for every graph anchor")
    p.add_argument("--corpus", help="corpus directory; only its users.jsonl and items.jsonl are read")
    p.add_argument("--graph", help="graph file")
    p.add_argument("--out", help="evidence cache file")
    p.add_argument("--only-missing", action="store_true",
                   help="keep existing cache entries and fill gaps only")
    p.set_defaults(handler=_cmd_verbalize)

    p = sub.add_parser("make-instances", parents=[common],
                       help="build leave-last-out evaluation instances for a scenario")
    p.add_argument("--corpus", help="corpus directory")
    p.add_argument("--scenario", choices=[s.value for s in Scenario], default=Scenario.CLASSIC.value)
    p.add_argument("--limit", type=int, help="stop after this many instances")
    p.add_argument("--out", required=True, help="instances .jsonl file")
    p.set_defaults(handler=_cmd_make_instances)

    p = sub.add_parser("run-teacher", parents=[common, backend],
                       help="run one multi-phase teacher session per instance")
    p.add_argument("--corpus", help="corpus directory; only its users.jsonl and items.jsonl are read")
    p.add_argument("--graph", help="graph file")
    p.add_argument("--cache", help="evidence cache file")
    p.add_argument("--instances", required=True, help="instances .jsonl file or directory")
    p.add_argument("--out", required=True, help="sessions .jsonl file")
    p.add_argument("--fail-reflection", action="store_true",
                   help="mock backend only: reflection flags one subtask to force a correction")
    p.set_defaults(handler=_cmd_run_teacher)

    p = sub.add_parser("filter", parents=[common],
                       help="keep only sessions whose top-ranked item is the ground truth")
    p.add_argument("--sessions", required=True, help="sessions .jsonl file or directory")
    p.add_argument("--out", required=True, help="kept-sessions .jsonl file")
    p.set_defaults(handler=_cmd_filter)

    p = sub.add_parser("export-sft", parents=[common],
                       help="export kept sessions as {system, user, assistant} training records")
    p.add_argument("--kept", required=True, help="kept-sessions .jsonl file or directory")
    p.add_argument("--out", required=True, help="training records .jsonl file")
    p.set_defaults(handler=_cmd_export_sft)

    p = sub.add_parser("score-rewards", parents=[common],
                       help="score format and outcome rewards for serialized trajectories")
    p.add_argument("--trajectories", required=True,
                   help="sessions or kept-sessions .jsonl file or directory")
    p.add_argument("--instances", help="instances .jsonl file or directory for ground-truth lookup")
    p.add_argument("--out", required=True, help="reward breakdowns .jsonl file")
    p.set_defaults(handler=_cmd_score_rewards)

    p = sub.add_parser("bucket-rl", parents=[common],
                       help="bucket rollout success counts by difficulty and sample the RL set")
    p.add_argument("--rollouts", required=True,
                   help=".jsonl file or directory of {id, success_count} rollout records")
    p.add_argument("--target", type=int,
                   help=f"RL set size (default from config, {PipelineConfig.rl_target})")
    p.add_argument("--out", required=True, help="selected {id, bucket} .jsonl file")
    p.set_defaults(handler=_cmd_bucket_rl)

    p = sub.add_parser("evaluate", parents=[common],
                       help="score session rankings against instances (sampled hit ratios)")
    p.add_argument("--sessions", required=True, help="sessions .jsonl file or directory")
    p.add_argument("--instances", required=True, help="instances .jsonl file or directory")
    p.add_argument("--out", required=True, help="report JSON file")
    p.set_defaults(handler=_cmd_evaluate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        config = _resolve_config(args)
        logger.info("command %s, seed %d, resolved config: %s", args.command, config.seed, config)
        args.handler(args, config)
    except (PipelineError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
