"""Flat INI pipeline configuration shared by every CLI command.

Precedence: CLI flags override config values; environment variables override
only the API key (looked up by `api_key_env` at request time).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .abstract import DEFAULT_WINDOW_M
from .errors import PipelineError
from .evaluate import ScenarioThresholds
from .gateway import DEFAULT_TEMPERATURE, DEFAULT_TOP_P, GatewayConfig
from .graph import DEFAULT_NEIGHBOR_K
from .prompts import DEFAULT_DOMAIN, TEMPLATE_FILES
from .rewards import DEFAULT_GROUP_SIZE, DEFAULT_RL_RATIO, DEFAULT_RL_TARGET
from .teacher import DEFAULT_MAX_TOOL_ROUNDS

SECTION = "pipeline"


@dataclass
class PipelineConfig:
    # paths
    corpus_dir: str = ""
    graph_path: str = ""
    cache_path: str = ""
    templates_dir: str = ""
    # gateway
    endpoint: str = ""
    model: str = ""
    api_key_env: str = "LLM_API_KEY"
    max_parallel: int = 4
    retries: int = 3
    timeout_s: float = 60.0
    # sampling
    temperature: float = DEFAULT_TEMPERATURE
    top_p: float = DEFAULT_TOP_P
    group_size: int = DEFAULT_GROUP_SIZE
    # pipeline knobs
    domain: str = DEFAULT_DOMAIN
    window_m: int = DEFAULT_WINDOW_M
    neighbor_k: int = DEFAULT_NEIGHBOR_K
    max_tool_rounds: int = DEFAULT_MAX_TOOL_ROUNDS
    ranker_tools: bool = True
    on_demand_verbalize: bool = False
    rl_target: int = DEFAULT_RL_TARGET
    rl_ratio: tuple[int, int, int] = DEFAULT_RL_RATIO
    seed: int = 0
    # scenario thresholds
    cold_user_max_history: int = 5
    cold_item_max_interactions: int = 2
    evo_long_min_history: int = 10
    evo_short_max_gap_s: int = 30 * 86400

    def gateway_config(self) -> GatewayConfig:
        return GatewayConfig(
            endpoint=self.endpoint,
            api_key_env=self.api_key_env,
            model=self.model,
            max_parallel=self.max_parallel,
            retries=self.retries,
            timeout_s=self.timeout_s,
        )

    def scenario_thresholds(self) -> ScenarioThresholds:
        return ScenarioThresholds(
            cold_user_max_history=self.cold_user_max_history,
            cold_item_max_interactions=self.cold_item_max_interactions,
            evo_long_min_history=self.evo_long_min_history,
            evo_short_max_gap_s=self.evo_short_max_gap_s,
        )

    def templates_path(self) -> Path | None:
        return Path(self.templates_dir) if self.templates_dir else None


def _parse_ratio(raw: str) -> tuple[int, int, int]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3 or not all(p.isdigit() for p in parts):
        raise PipelineError(f"rl_ratio must be three comma-separated integers, got {raw!r}")
    return (int(parts[0]), int(parts[1]), int(parts[2]))


_BOOL = {"1": True, "true": True, "yes": True, "on": True,
         "0": False, "false": False, "no": False, "off": False}


def _convert(name: str, kind: type, raw: str):
    raw = raw.strip()
    try:
        if kind is bool:
            return _BOOL[raw.lower()]
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except (KeyError, ValueError):
        raise PipelineError(f"config key {name!r}: cannot parse {raw!r} as {kind.__name__}") from None


def load_config(path: Path | None = None) -> PipelineConfig:
    """Read the [pipeline] section; unknown keys are errors, not typos."""
    config = PipelineConfig()
    if path is None:
        return config
    parser = configparser.ConfigParser()
    read = parser.read(path, encoding="utf-8")
    if not read:
        raise PipelineError(f"config file not found: {path}")
    if not parser.has_section(SECTION):
        raise PipelineError(f"config file {path} has no [{SECTION}] section")
    known = {f.name: f for f in fields(PipelineConfig)}
    updates = {}
    for key, raw in parser.items(SECTION):
        if key not in known:
            raise PipelineError(f"unknown config key {key!r}")
        if key == "rl_ratio":
            updates[key] = _parse_ratio(raw)
        else:
            updates[key] = _convert(key, type(getattr(config, key)), raw)
    config = replace(config, **updates)
    validate_config(config)
    return config


def validate_config(config: PipelineConfig) -> None:
    directory = config.templates_path()
    if directory is not None:
        missing = [name for name in TEMPLATE_FILES if not (directory / name).is_file()]
        if missing:
            raise PipelineError(f"templates_dir {directory} is missing {', '.join(missing)}")
    if config.window_m < 1:
        raise PipelineError("window_m must be >= 1")
    if config.neighbor_k < 1:
        raise PipelineError("neighbor_k must be >= 1")
    if config.group_size < 1:
        raise PipelineError("group_size must be >= 1")
    if config.rl_target < 1:
        raise PipelineError("rl_target must be >= 1")
