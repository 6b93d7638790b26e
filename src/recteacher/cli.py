"""Pipeline entry point: one subcommand per stage, shared config file.

Stages chain through plain line-delimited artifacts so every command is
restartable and two runs with the same config, seed, and scripted backend
produce byte-identical outputs. All writes go through temp-file-then-rename
(the evidence cache is the documented exception: it appends per record so a
partially warmed cache survives a crash); JSONL artifacts are streamed to their
temp file one record at a time. run-teacher handles each session when its turn
in instance order comes, whatever order the concurrent sessions finished in:
it appends the session's on-demand fills to the cache and writes its record.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

from .config import PipelineConfig, load_config
from .corpus import Interaction, ingest, interaction_record, load_corpus, save_corpus
from .errors import EmptyInput, MalformedRecord, PipelineError
from .evaluate import (
    DEFAULT_KS,
    EvalInstance,
    EvalReport,
    Scenario,
    build_instance,
    evaluate,
    matches_scenario,
)
from .gateway import Gateway, HttpBackend, ScriptBackend
from .graph import build_graph, load_graph, save_graph
from .oracle import OracleBackend
from .rewards import Bucket, bucket, composite_reward, compose_rl_set, largest_remainder
from .teacher import PhaseRecord, SessionLog, TeacherConfig, ToolRunner, build_context, run_teacher
from .trajectory import export_sft, serialize, top1_hit
from .util import read_jsonl, write_atomic, write_jsonl_atomic
from .verbalize import EvidenceCache, warm_cache

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FAILURE = 1
# usage errors exit 2 via argparse itself

BACKEND_MOCK = "mock"
BACKEND_HTTP = "http"


# ---------------------------------------------------------------------------
# shared plumbing


def _required_path(flag_value: str | None, config_value: str, what: str) -> str:
    """Resolve a path from the CLI flag, falling back to the config file."""
    if flag_value:
        return flag_value
    if config_value:
        return config_value
    raise PipelineError(f"no {what} path given (pass the flag or set it in the config file)")


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    config = load_config(Path(args.config) if args.config else None)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.parallel is not None:
        if args.parallel < 1:
            raise PipelineError("--parallel must be >= 1")
        config = replace(config, max_parallel=args.parallel)
    return config


def _make_gateway(args: argparse.Namespace, config: PipelineConfig,
                  ground_truth: Mapping[str, str] | None = None) -> Gateway:
    backend_name = getattr(args, "backend", BACKEND_HTTP)
    script_path = getattr(args, "script", None)
    if script_path and backend_name != BACKEND_MOCK:
        raise PipelineError("--script requires --backend mock")
    gateway_config = config.gateway_config()
    if backend_name == BACKEND_MOCK:
        if script_path:
            try:
                replies = json.loads(Path(script_path).read_text(encoding="utf-8"))
            except ValueError as exc:
                raise PipelineError(f"script file {script_path!r} is not valid JSON: {exc}") from exc
            if not isinstance(replies, list) or not all(isinstance(r, str) for r in replies):
                raise PipelineError(f"script file {script_path!r} must be a JSON array of reply strings")
            backend: Any = ScriptBackend(replies)
        else:
            backend = OracleBackend(
                ground_truth=ground_truth,
                fail_reflection=getattr(args, "fail_reflection", False),
            )
    else:
        if not gateway_config.endpoint:
            raise PipelineError(
                "http backend needs an endpoint (set `endpoint` in the config file or use --backend mock)"
            )
        backend = HttpBackend(gateway_config)
    return Gateway(backend, gateway_config)


def _read_records(path: str | Path, what: str) -> list[dict]:
    """Read record dicts from one .jsonl file or every .jsonl in a directory."""
    base = Path(path)
    if base.is_dir():
        files = sorted(base.glob("*.jsonl"))
        if not files:
            raise EmptyInput(f"no .jsonl {what} files under {base}")
    else:
        files = [base]
    records: list[dict] = []
    for file in files:
        for lineno, obj in read_jsonl(file):
            if not isinstance(obj, dict):
                raise MalformedRecord(lineno, f"{what} record is not a JSON object", source=str(file))
            records.append(obj)
    return records


def _record_field(record: dict, key: str, what: str) -> Any:
    if key not in record:
        raise PipelineError(f"{what} record {record.get('id', '?')!r} is missing {key!r}")
    return record[key]


# ---------------------------------------------------------------------------
# instance records


def _interaction_from_record(record: dict) -> Interaction:
    return Interaction(
        user=str(record["user_id"]),
        item=str(record["item_id"]),
        timestamp=int(record["timestamp"]),
        rating=record.get("rating"),
        review_text=record.get("review_text"),
    )


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


def _instance_from_record(record: dict) -> EvalInstance:
    try:
        return EvalInstance(
            user=str(record["user"]),
            history=tuple(_interaction_from_record(r) for r in record["history"]),
            candidates=tuple(str(c) for c in record["candidates"]),
            ground_truth=str(record["ground_truth"]),
            scenario=Scenario(record.get("scenario", Scenario.CLASSIC.value)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise PipelineError(f"bad instance record {record.get('id', '?')!r}: {exc}") from exc


def _read_instances(path: str | Path) -> list[tuple[dict, EvalInstance]]:
    pairs = [(record, _instance_from_record(record)) for record in _read_records(path, "instance")]
    if not pairs:
        raise EmptyInput(f"no instances in {path}")
    seen: set[str] = set()
    for record, _instance in pairs:
        instance_id = str(_record_field(record, "id", "instance"))
        if instance_id in seen:
            raise PipelineError(f"duplicate instance id {instance_id!r}")
        seen.add(instance_id)
    return pairs


# ---------------------------------------------------------------------------
# session records


def _phase_record(record: PhaseRecord) -> dict:
    return {
        "phase": record.phase.value,
        "kind": record.kind.value if record.kind is not None else None,
        "thinking": record.thinking,
        "tool_events": [
            {"call": {"name": call.name, "arguments": dict(call.arguments)}, "result": result}
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


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ingest(args: argparse.Namespace, config: PipelineConfig) -> int:
    corpus = ingest(args.users, args.items, args.reviews)
    save_corpus(corpus, args.out)
    print(
        f"ingested {len(corpus.users)} users, {len(corpus.items)} items, "
        f"{corpus.interaction_count()} interactions -> {args.out}"
    )
    return EXIT_OK


def _cmd_build_graph(args: argparse.Namespace, config: PipelineConfig) -> int:
    corpus = load_corpus(_required_path(args.corpus, config.corpus_dir, "corpus"))
    graph = build_graph(corpus)
    out = _required_path(args.out, config.graph_path, "graph output")
    save_graph(graph, out)
    print(
        f"graph: {len(graph.user_adj)} users, {len(graph.item_adj)} items, "
        f"{graph.edge_count()} edges -> {out}"
    )
    return EXIT_OK


def _cmd_verbalize(args: argparse.Namespace, config: PipelineConfig) -> int:
    corpus = load_corpus(_required_path(args.corpus, config.corpus_dir, "corpus"))
    graph = load_graph(_required_path(args.graph, config.graph_path, "graph"))
    out = Path(_required_path(args.out, config.cache_path, "cache output"))

    if args.only_missing and out.exists():
        cache = EvidenceCache.load(out)
    else:
        if out.exists():
            out.unlink()  # full rebuild; --only-missing preserves prior entries
        cache = EvidenceCache(path=out)
    before = len(cache)

    gateway = _make_gateway(args, config)
    failures: list[str] = []

    def on_error(key: Any, exc: Exception) -> None:
        failures.append(f"{key.tool}:{key.anchor}: {type(exc).__name__}: {exc}")
        logger.warning("verbalization failed for %s %s: %s", key.tool, key.anchor, exc)

    warm_cache(
        graph,
        corpus,
        gateway,
        cache=cache,
        k=config.neighbor_k,
        domain=config.domain,
        templates_dir=config.templates_path(),
        created_at=args.stamp,
        on_error=on_error,
    )
    print(f"cache entries: {len(cache)} ({len(cache) - before} new, {len(failures)} failed) -> {out}")
    if failures:
        raise PipelineError(f"{len(failures)} keys failed to verbalize; first: {failures[0]}")
    return EXIT_OK


def _cmd_make_instances(args: argparse.Namespace, config: PipelineConfig) -> int:
    corpus = load_corpus(_required_path(args.corpus, config.corpus_dir, "corpus"))
    scenario = Scenario(args.scenario)
    thresholds = config.scenario_thresholds()
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
    return EXIT_OK


def _cmd_run_teacher(args: argparse.Namespace, config: PipelineConfig) -> int:
    corpus = load_corpus(_required_path(args.corpus, config.corpus_dir, "corpus"))
    graph = load_graph(_required_path(args.graph, config.graph_path, "graph"))
    cache_path = Path(_required_path(args.cache, config.cache_path, "cache"))
    cache = EvidenceCache.load(cache_path) if cache_path.exists() else EvidenceCache(path=cache_path)

    pairs = _read_instances(args.instances)
    ground_truth = {instance.user: instance.ground_truth for _record, instance in pairs}
    gateway = _make_gateway(args, config, ground_truth=ground_truth)

    teacher_config = TeacherConfig(
        domain=config.domain,
        temperature=config.temperature,
        top_p=config.top_p,
        max_tool_rounds=config.max_tool_rounds,
        ranker_tools=config.ranker_tools,
        window_m=config.window_m,
        templates_dir=config.templates_path(),
    )
    tools = ToolRunner(
        cache,
        graph=graph,
        corpus=corpus,
        gateway=gateway,
        on_demand=config.on_demand_verbalize,
        k=config.neighbor_k,
        domain=config.domain,
        templates_dir=config.templates_path(),
        created_at=args.stamp,
    )

    def run_one(pair: tuple[dict, EvalInstance]) -> tuple[SessionLog, dict]:
        record, instance = pair
        context = build_context(instance, corpus, gateway, teacher_config)
        log = run_teacher(context, teacher_config, gateway, tools)
        return log, _session_record(str(record["id"]), instance, context.prompt, log)

    # Sessions run concurrently, but are consumed in instance order: each
    # session's on-demand fills are appended to the cache and its record is
    # streamed to the temp file when its turn comes. The cache file matches a
    # serial run byte for byte, a failed session still leaves the fills of
    # every session before it, and only unconsumed results stay in memory.
    with ThreadPoolExecutor(max_workers=max(1, config.max_parallel)) as pool:
        def session_records() -> Iterator[dict]:
            for log, session_record in pool.map(run_one, pairs):
                tools.persist(log)
                yield session_record

        count = write_jsonl_atomic(args.out, session_records())
    print(f"sessions: {count} -> {args.out}")
    return EXIT_OK


def _cmd_filter(args: argparse.Namespace, config: PipelineConfig) -> int:
    records = _read_records(args.sessions, "session")
    kept = []
    for record in records:
        trajectory = str(_record_field(record, "trajectory", "session"))
        ground_truth = str(_record_field(record, "ground_truth", "session"))
        if top1_hit(trajectory, ground_truth) is True:
            kept.append({
                "id": _record_field(record, "id", "session"),
                "user": record.get("user", ""),
                "ground_truth": ground_truth,
                "prompt": record.get("prompt", ""),
                "trajectory": trajectory,
            })
    write_jsonl_atomic(args.out, kept)
    print(f"kept {len(kept)} / {len(records)}")
    return EXIT_OK


def _cmd_export_sft(args: argparse.Namespace, config: PipelineConfig) -> int:
    records = _read_records(args.kept, "kept-session")
    trajectories: dict[str, str] = {}
    prompts_by_id: dict[str, str] = {}
    for record in records:
        session_id = str(_record_field(record, "id", "kept-session"))
        if session_id in trajectories:
            raise PipelineError(f"duplicate session id {session_id!r}")
        trajectories[session_id] = str(_record_field(record, "trajectory", "kept-session"))
        prompts_by_id[session_id] = str(_record_field(record, "prompt", "kept-session"))
    count = export_sft(trajectories, prompts_by_id, Path(args.out),
                       templates_dir=config.templates_path())
    print(f"exported {count} records -> {args.out}")
    return EXIT_OK


def _cmd_score_rewards(args: argparse.Namespace, config: PipelineConfig) -> int:
    records = _read_records(args.trajectories, "trajectory")
    ground_truth_by_id: dict[str, str] = {}
    if args.instances:
        for record in _read_records(args.instances, "instance"):
            ground_truth_by_id[str(_record_field(record, "id", "instance"))] = str(
                _record_field(record, "ground_truth", "instance")
            )
    out_records = []
    for record in records:
        record_id = str(_record_field(record, "id", "trajectory"))
        ground_truth = record.get("ground_truth", ground_truth_by_id.get(record_id))
        if ground_truth is None:
            raise PipelineError(f"no ground truth for trajectory {record_id!r} (pass --instances)")
        breakdown = composite_reward(str(_record_field(record, "trajectory", "trajectory")),
                                     str(ground_truth))
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
    return EXIT_OK


def _cmd_bucket_rl(args: argparse.Namespace, config: PipelineConfig) -> int:
    by_bucket: dict[Bucket, list[str]] = {b: [] for b in Bucket}
    bucket_of: dict[str, Bucket] = {}
    for record in _read_records(args.rollouts, "rollout"):
        record_id = str(_record_field(record, "id", "rollout"))
        if record_id in bucket_of:
            raise PipelineError(f"duplicate rollout id {record_id!r}")
        count = _record_field(record, "success_count", "rollout")
        if isinstance(count, bool) or not isinstance(count, int):
            raise PipelineError(f"rollout {record_id!r}: success_count must be an integer")
        try:
            which = bucket(count, config.group_size)
        except ValueError as exc:
            raise PipelineError(f"rollout {record_id!r}: {exc}") from exc
        by_bucket[which].append(record_id)
        bucket_of[record_id] = which

    target = args.target if args.target is not None else config.rl_target
    chosen = compose_rl_set(by_bucket, target_total=target, ratio=config.rl_ratio,
                            rng_seed=config.seed)
    quotas = largest_remainder(target, config.rl_ratio)
    write_jsonl_atomic(args.out, [{"id": cid, "bucket": bucket_of[cid].value} for cid in chosen])
    print(
        f"quotas easy/medium/hard: {quotas[0]}/{quotas[1]}/{quotas[2]}; "
        f"excluded {len(by_bucket[Bucket.EXCLUDED])}; selected {len(chosen)} -> {args.out}"
    )
    return EXIT_OK


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


def _cmd_evaluate(args: argparse.Namespace, config: PipelineConfig) -> int:
    sessions = _read_records(args.sessions, "session")
    instance_records = {
        str(_record_field(record, "id", "instance")): record
        for record in _read_records(args.instances, "instance")
    }
    all_pairs: list[tuple[list[str], EvalInstance]] = []
    by_scenario: dict[str, list[tuple[list[str], EvalInstance]]] = {}
    for record in sessions:
        session_id = str(_record_field(record, "id", "session"))
        if session_id not in instance_records:
            raise PipelineError(f"session {session_id!r} has no matching instance record")
        instance = _instance_from_record(instance_records[session_id])
        ranking = [str(item) for item in _record_field(record, "final_ranking", "session")]
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
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="pipeline config file (INI)")
    common.add_argument("--seed", type=int, help="override the configured random seed")
    common.add_argument("--parallel", type=int,
                        help="max concurrent gateway calls and sessions (default from config, 4)")
    common.add_argument("--verbose", action="store_true", help="debug logging")

    backend = argparse.ArgumentParser(add_help=False)
    backend.add_argument("--backend", choices=[BACKEND_MOCK, BACKEND_HTTP], default=BACKEND_HTTP,
                         help="LLM backend: a deterministic offline mock or the configured http endpoint")
    backend.add_argument("--script",
                         help="JSON array of canned replies, handed out in send order (needs "
                              "--backend mock); reproducible across sessions only at --parallel 1")

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
    p.add_argument("--corpus", help="corpus directory")
    p.add_argument("--graph", help="graph file")
    p.add_argument("--out", help="evidence cache file")
    p.add_argument("--only-missing", action="store_true",
                   help="keep existing cache entries and fill gaps only")
    p.add_argument("--stamp", type=int, default=0,
                   help="created_at stamp recorded on new cache entries (default 0)")
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
    p.add_argument("--corpus", help="corpus directory")
    p.add_argument("--graph", help="graph file")
    p.add_argument("--cache", help="evidence cache file")
    p.add_argument("--instances", required=True, help="instances .jsonl file")
    p.add_argument("--out", required=True, help="sessions .jsonl file")
    p.add_argument("--fail-reflection", action="store_true",
                   help="mock backend only: reflection flags one subtask to force a correction")
    p.add_argument("--stamp", type=int, default=0,
                   help="created_at stamp for on-demand cache entries (default 0)")
    p.set_defaults(handler=_cmd_run_teacher)

    p = sub.add_parser("filter", parents=[common],
                       help="keep only sessions whose top-ranked item is the ground truth")
    p.add_argument("--sessions", required=True, help="sessions .jsonl file or directory")
    p.add_argument("--out", required=True, help="kept-sessions .jsonl file")
    p.set_defaults(handler=_cmd_filter)

    p = sub.add_parser("export-sft", parents=[common],
                       help="export kept sessions as {system, user, assistant} training records")
    p.add_argument("--kept", required=True, help="kept-sessions .jsonl file")
    p.add_argument("--out", required=True, help="training records .jsonl file")
    p.set_defaults(handler=_cmd_export_sft)

    p = sub.add_parser("score-rewards", parents=[common],
                       help="score format and outcome rewards for serialized trajectories")
    p.add_argument("--trajectories", required=True, help="sessions or kept-sessions .jsonl")
    p.add_argument("--instances", help="instances .jsonl for ground-truth lookup")
    p.add_argument("--out", required=True, help="reward breakdowns .jsonl file")
    p.set_defaults(handler=_cmd_score_rewards)

    p = sub.add_parser("bucket-rl", parents=[common],
                       help="bucket rollout success counts by difficulty and sample the RL set")
    p.add_argument("--rollouts", required=True,
                   help=".jsonl of {id, success_count} rollout records")
    p.add_argument("--target", type=int, help="RL set size (default from config, 500)")
    p.add_argument("--out", required=True, help="selected {id, bucket} .jsonl file")
    p.set_defaults(handler=_cmd_bucket_rl)

    p = sub.add_parser("evaluate", parents=[common],
                       help="score session rankings against instances (sampled hit ratios)")
    p.add_argument("--sessions", required=True, help="sessions .jsonl file or directory")
    p.add_argument("--instances", required=True, help="instances .jsonl file")
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
        return args.handler(args, config)
    except (PipelineError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
