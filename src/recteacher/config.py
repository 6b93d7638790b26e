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
from .gateway import GatewayConfig
from .prompts import DEFAULT_DOMAIN
from .rewards import DEFAULT_GROUP_SIZE
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
    max_tool_rounds: int = DEFAULT_MAX_TOOL_ROUNDS
    seed: int = 0

    def view(self, cls: type[T]) -> T:
        """A `cls` (GatewayConfig or TeacherConfig) from the fields named alike."""
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)})


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
        updates[key] = _convert(key, type(getattr(config, key)), raw)
    config = replace(config, **updates)
    validate_config(config)
    return config


def validate_config(config: PipelineConfig) -> None:
    """Check every bound; the gateway and teacher checks are reused, not restated."""
    if config.group_size < 1:
        raise PipelineError("group_size must be >= 1")
    try:
        config.view(GatewayConfig)
        config.view(TeacherConfig)
    except ValueError as exc:
        raise PipelineError(str(exc)) from None
