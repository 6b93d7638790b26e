"""Flat INI pipeline configuration shared by every CLI command.

Precedence: CLI flags override config values; environment variables override
only the API key (looked up by `api_key_env` at request time).
"""

from __future__ import annotations

import configparser
import logging
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import TypeVar

from .abstract import DEFAULT_WINDOW_M
from .errors import PipelineError
from .evaluate import ScenarioThresholds
from .gateway import GatewayConfig
from .graph import DEFAULT_NEIGHBOR_K
from .prompts import DEFAULT_DOMAIN
from .rewards import DEFAULT_GROUP_SIZE, DEFAULT_RL_RATIO, DEFAULT_RL_TARGET, largest_remainder
from .teacher import DEFAULT_MAX_TOOL_ROUNDS, TeacherConfig

logger = logging.getLogger(__name__)

SECTION = "pipeline"

T = TypeVar("T")


@dataclass
class PipelineConfig:
    # paths
    corpus_dir: str = ""
    graph_path: str = ""
    cache_path: str = ""
    # gateway
    endpoint: str = ""
    model: str = ""
    api_key_env: str = GatewayConfig.api_key_env
    max_parallel: int = GatewayConfig.max_parallel
    retries: int = GatewayConfig.retries
    timeout_s: float = GatewayConfig.timeout_s
    # sampling
    temperature: float = GatewayConfig.temperature
    top_p: float = GatewayConfig.top_p
    group_size: int = DEFAULT_GROUP_SIZE
    # pipeline knobs
    domain: str = DEFAULT_DOMAIN
    window_m: int = DEFAULT_WINDOW_M
    neighbor_k: int = DEFAULT_NEIGHBOR_K
    max_tool_rounds: int = DEFAULT_MAX_TOOL_ROUNDS
    rl_target: int = DEFAULT_RL_TARGET
    rl_ratio: tuple[int, int, int] = DEFAULT_RL_RATIO
    seed: int = 0
    # scenario thresholds
    cold_user_max_history: int = ScenarioThresholds.cold_user_max_history
    cold_item_max_interactions: int = ScenarioThresholds.cold_item_max_interactions
    evo_long_min_history: int = ScenarioThresholds.evo_long_min_history
    evo_short_max_gap_s: int = ScenarioThresholds.evo_short_max_gap_s

    def view(self, cls: type[T]) -> T:
        """A `cls` (GatewayConfig, TeacherConfig or ScenarioThresholds) from the fields named alike."""
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)})


def _parse_ratio(raw: str) -> tuple[int, int, int]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3 or not all(p.isdigit() for p in parts):
        raise PipelineError(f"rl_ratio must be three comma-separated integers, got {raw!r}")
    return (int(parts[0]), int(parts[1]), int(parts[2]))


def _convert(name: str, kind: type, raw: str):
    raw = raw.strip()
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except ValueError:
        raise PipelineError(f"config key {name!r}: cannot parse {raw!r} as {kind.__name__}") from None


def load_config(path: Path | None = None) -> PipelineConfig:
    """Read the [pipeline] section; unknown keys are errors, not typos. A `%` is literal."""
    config = PipelineConfig()
    if path is None:
        return config
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(str(path), encoding="utf-8")
    except configparser.Error as exc:  # its message may span lines
        raise PipelineError(f"config file {path}: {' '.join(str(exc).split())}") from None
    if not read:
        raise PipelineError(f"config file not found: {path}")
    if not parser.has_section(SECTION):
        raise PipelineError(f"config file {path} has no [{SECTION}] section")
    known = {f.name: f for f in fields(PipelineConfig)}
    updates = {}
    for key, raw in parser.items(SECTION):
        if key == "on_demand_verbalize":  # retired, but the benchmark's ondemand.ini still sets it
            logger.warning("config key %r has no effect: run-teacher fills every cache miss "
                           "from its graph", key)
            continue
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
    """Check every bound; the gateway, teacher and RL-quota checks are reused, not restated."""
    for name in ("neighbor_k", "group_size", "rl_target"):
        if getattr(config, name) < 1:
            raise PipelineError(f"{name} must be >= 1")
    try:
        config.view(GatewayConfig)
        config.view(TeacherConfig)
    except ValueError as exc:
        raise PipelineError(str(exc)) from None
    try:
        largest_remainder(config.rl_target, config.rl_ratio)
    except ValueError as exc:
        raise PipelineError(f"rl_ratio {config.rl_ratio}: {exc}") from None
