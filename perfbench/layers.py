"""Per-layer metrics from the traced run's spans and the mock LLM's send log.

Counts ("per batch", "per session") come from the traced timed batches only.
Rates and per-call times pool every span of their name in the run (set-up,
traced batches and the untimed tail), because some layers run only in
set-up on a given workload. Self time is a span's duration minus its direct
child spans, which run on the same thread one after another.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from stats import median, percentile

CLI_COMMANDS = ("ingest", "build-graph", "verbalize", "make-instances.Classic",
                "make-instances.ColdStartItem", "run-teacher", "filter", "export-sft",
                "score-rewards", "bucket-rl", "evaluate")
TEACHER_FUNCTIONS = ("build_context", "plan", "execute_subtask", "reflect", "rank")
SCENARIOS = ("Classic", "ColdStartItem")


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _median(values: Sequence[float]) -> float:
    return median(values) if values else 0.0


def _p(values: Sequence[float], p: float) -> float:
    return percentile(values, p)[0] if values else 0.0


def _rate(spans: Sequence) -> float:
    busy = sum(s.duration for s in spans)
    return len(spans) / busy if busy else 0.0


def per_layer(spans: Sequence, sends: Sequence, batches: Sequence, sessions: int
              ) -> dict[str, tuple[float, str]]:
    traced = [b for b in batches if b.traced]
    n_batches = max(1, len(traced))
    n_sessions = max(1, sessions)

    def in_batches(span) -> bool:
        return any(b.window[0] <= span.start <= b.window[1] for b in traced)

    by_name: dict[str, list] = defaultdict(list)
    timed: dict[str, list] = defaultdict(list)
    child_time: dict[int, float] = defaultdict(float)
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if in_batches(span):
            timed[span.name].append(span)
        if span.parent is not None:
            child_time[span.parent] += span.duration
            children[span.parent].append(span)

    m: dict[str, tuple[float, str]] = {}
    for command in CLI_COMMANDS:
        m[f"cli.{command}_s"] = (_median([s.duration for s in by_name[f"cli.{command}"]]), "s")

    ingests = [s for s in by_name["corpus.ingest"] if isinstance(s.extra, int)]
    m["corpus.ingest_calls"] = (len(timed["corpus.ingest"]) / n_batches, "count")
    busy = sum(s.duration for s in ingests)
    m["corpus.ingest_records_per_s"] = (sum(s.extra for s in ingests) / busy if busy else 0.0,
                                        "1/s")

    m["graph.build_s"] = (_median([s.duration for s in by_name["graph.build_graph"]]), "s")
    m["graph.load_s"] = (_median([s.duration for s in by_name["graph.load_graph"]]), "s")
    m["graph.itemcf_us_per_anchor"] = (
        _mean([s.duration for s in by_name["graph.item_cf_neighbors"]]) * 1e6, "us")
    m["graph.usercf_pool_us_per_anchor"] = (
        _mean([s.duration for s in by_name["graph.neighbor_item_pool"]]) * 1e6, "us")

    batch_sends = [s for b in traced for s in sends if b.window[0] <= s.start <= b.window[1]]
    completes = timed["gateway.complete"]
    waits = [s.extra[0] * 1000 for s in completes if s.extra and s.extra[0] != "error"]
    m["gateway.sends"] = (len(batch_sends) / n_batches, "count")
    m["gateway.retries"] = (sum(max(0, s.extra[1] - 1) for s in completes
                                if s.extra and s.extra[0] != "error") / n_batches, "count")
    m["gateway.errors"] = (sum(1 for s in completes if s.extra and s.extra[0] == "error")
                           / n_batches, "count")
    m["gateway.slot_wait_ms_p50"] = (_p(waits, 0.5), "ms")
    m["gateway.slot_wait_ms_p90"] = (_p(waits, 0.9), "ms")
    m["gateway.inflight_mean"] = (_mean([
        sum(s.end - s.start for s in sends if b.window[0] <= s.start <= b.window[1])
        / (b.window[1] - b.window[0]) for b in traced]), "count")

    prompt_spans = [s for name, group in timed.items() if name.startswith("prompts.")
                    for s in group]
    m["prompts.render_s"] = (sum(s.duration for s in prompt_spans) / n_batches, "s")
    m["prompts.chars_per_session"] = (
        sum(s.chars for b in traced for s in sends[b.send_range[0]:b.send_range[1]]
            if s.user is not None) / n_sessions, "chars")

    warm = by_name["verbalize.warm_cache"]
    warm_ids = {s.id for s in warm}
    warm_busy = sum(s.duration for s in warm)
    warm_puts = sum(1 for s in by_name["verbalize.cache_put"] if s.parent in warm_ids)
    m["verbalize.keys_per_s"] = (warm_puts / warm_busy if warm_busy else 0.0, "1/s")
    m["verbalize.cache_load_s"] = (_median([s.duration for s in by_name["verbalize.cache_load"]]),
                                   "s")
    m["verbalize.cache_put_ms_p50"] = (
        _median([s.duration for s in by_name["verbalize.cache_put"]]) * 1000, "ms")
    runs = timed["teacher.tool_run"]
    fills = sum(1 for s in runs
                if any(c.name == "verbalize.cache_put" for c in children[s.id]))
    fallbacks = sum(1 for s in runs if s.extra is True)
    hits = len(runs) - fills - fallbacks
    m["verbalize.tool_hits"] = (hits / n_batches, "count")
    m["verbalize.ondemand_fills"] = (fills / n_batches, "count")
    m["verbalize.miss_fallbacks"] = (fallbacks / n_batches, "count")
    m["verbalize.hit_ratio"] = (hits / len(runs) if runs else 0.0, "ratio")

    abstracts = timed["abstract.abstract"]
    abstract_ids = {s.id for s in abstracts}
    m["abstract.calls_per_session"] = (
        sum(1 for s in completes if s.parent in abstract_ids) / n_sessions, "calls")
    m["abstract.ms_p50"] = (_median([s.duration for s in abstracts]) * 1000, "ms")

    for fn in TEACHER_FUNCTIONS:
        selfs = [(s.duration - child_time[s.id]) * 1000 for s in timed[f"teacher.{fn}"]]
        m[f"teacher.{fn}_self_ms"] = (_median(selfs), "ms")
    m["teacher.tool_calls_per_session"] = (len(runs) / n_sessions, "calls")
    session_time = sum(s.duration for name in ("teacher.build_context", "teacher.run_teacher")
                       for s in timed[name])
    session_wait = sum(s.duration for s in completes if s.session is not None)
    m["teacher.gateway_wait_share"] = (session_wait / session_time if session_time else 0.0,
                                       "ratio")

    m["trajectory.serialize_per_s"] = (_rate(by_name["trajectory.serialize"]), "1/s")
    m["trajectory.parse_per_s"] = (_rate(by_name["trajectory.parse"]), "1/s")
    m["rewards.score_per_s"] = (_rate(by_name["rewards.composite_reward"]), "1/s")

    for scenario in SCENARIOS:
        m[f"evaluate.match_us_per_user.{scenario}"] = (
            _mean([s.duration for s in by_name[f"evaluate.matches_scenario.{scenario}"]]) * 1e6,
            "us")
    m["evaluate.build_instance_us"] = (
        _mean([s.duration for s in by_name["evaluate.build_instance"]]) * 1e6, "us")

    walls = [b.wall for b in batches if b.traced]
    plain = [b.wall for b in batches if not b.traced]
    m["trace.overhead_ratio"] = (_median(walls) / _median(plain) if plain and walls else 0.0,
                                 "ratio")
    return m
