"""Teacher-trajectory pipeline for tool-using recommendation agents.

A strong teacher model plans, calls collaborative-filtering graph tools,
reflects, corrects itself, and ranks candidate items. Successful sessions are
serialized into tagged trajectories for supervised distillation; rewards and
difficulty buckets prepare the reinforcement stage; a sampled hit-ratio
evaluator scores the results.
"""

from __future__ import annotations

from .abstract import HybridHistory, abstract, chunk, render_interaction
from .corpus import (
    Corpus,
    Interaction,
    ItemMeta,
    UserMeta,
    holdout_split,
    ingest,
    load_corpus,
    save_corpus,
)
from .errors import PipelineError
from .evaluate import (
    EvalInstance,
    EvalReport,
    Scenario,
    ScenarioThresholds,
    best_of_k,
    build_instance,
    evaluate,
    hit_at_k,
    matches_scenario,
)
from .gateway import (
    ChatReply,
    ChatRequest,
    Gateway,
    GatewayConfig,
    HttpBackend,
    ScriptBackend,
    chat_request,
)
from .graph import (
    InteractionGraph,
    build_graph,
    item_cf_neighbors,
    load_graph,
    neighbor_item_pool,
    save_graph,
    user_cf_neighbors,
)
from .oracle import OracleBackend
from .rewards import (
    Bucket,
    RewardBreakdown,
    bucket,
    compose_rl_set,
    composite_reward,
    format_reward,
    largest_remainder,
    outcome_reward,
)
from .tags import ToolCall, decode_tool_call, decode_tool_calls, encode_tool_call
from .teacher import (
    Phase,
    PhaseRecord,
    SessionLog,
    SubtaskKind,
    TeacherConfig,
    TeacherContext,
    ToolRunner,
    build_context,
    run_teacher,
)
from .trajectory import (
    ParsedTrajectory,
    export_sft,
    outcome_filter,
    parse,
    serialize,
    top1_hit,
)
from .verbalize import (
    Evidence,
    EvidenceCache,
    EvidenceKey,
    verbalize_item,
    verbalize_user,
    warm_cache,
)

__all__ = [
    "Bucket",
    "ChatReply",
    "ChatRequest",
    "Corpus",
    "EvalInstance",
    "EvalReport",
    "Evidence",
    "EvidenceCache",
    "EvidenceKey",
    "Gateway",
    "GatewayConfig",
    "HttpBackend",
    "HybridHistory",
    "Interaction",
    "InteractionGraph",
    "ItemMeta",
    "OracleBackend",
    "ParsedTrajectory",
    "Phase",
    "PhaseRecord",
    "PipelineError",
    "RewardBreakdown",
    "Scenario",
    "ScenarioThresholds",
    "ScriptBackend",
    "SessionLog",
    "SubtaskKind",
    "TeacherConfig",
    "TeacherContext",
    "ToolCall",
    "ToolRunner",
    "UserMeta",
    "abstract",
    "best_of_k",
    "bucket",
    "build_context",
    "build_graph",
    "build_instance",
    "chat_request",
    "chunk",
    "compose_rl_set",
    "composite_reward",
    "decode_tool_call",
    "decode_tool_calls",
    "encode_tool_call",
    "evaluate",
    "export_sft",
    "format_reward",
    "hit_at_k",
    "holdout_split",
    "ingest",
    "item_cf_neighbors",
    "largest_remainder",
    "load_corpus",
    "load_graph",
    "matches_scenario",
    "neighbor_item_pool",
    "outcome_filter",
    "outcome_reward",
    "parse",
    "render_interaction",
    "run_teacher",
    "save_corpus",
    "save_graph",
    "serialize",
    "top1_hit",
    "user_cf_neighbors",
    "verbalize_item",
    "verbalize_user",
    "warm_cache",
]
