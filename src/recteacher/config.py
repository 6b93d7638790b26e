"""Flat INI pipeline configuration shared by every CLI command.

The [pipeline] section is flat, but each key is a field of exactly one
dataclass: `PipelineConfig` for paths and `seed`, `GatewayConfig` for the
endpoint and sampling. Each dataclass checks its own bounds. Nothing else is a
setting: the teacher's history window, tool round bound and prompt dataset, and
bucket-rl's rollout group, are constants (`DEFAULT_WINDOW_M`,
`DEFAULT_MAX_TOOL_ROUNDS`, `prompts.DEFAULT_DOMAIN`, `rewards.DEFAULT_GROUP_SIZE`).

Precedence: CLI flags override config values; environment variables override
only the API key (looked up by `api_key_env` at request time).
"""

from __future__ import annotations

import configparser
import logging
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .errors import PipelineError
from .gateway import GatewayConfig

logger = logging.getLogger(__name__)

SECTION = "pipeline"

# the PipelineConfig fields that hold another dataclass's settings
PARTS = ("gateway",)


@dataclass
class PipelineConfig:
    """The pipeline's own settings, and the gateway's in its own dataclass."""

    corpus_dir: str = ""
    graph_path: str = ""
    cache_path: str = ""
    seed: int = 0
    gateway: GatewayConfig = field(default_factory=GatewayConfig)


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
    """Read the [pipeline] section; unknown keys and sections are errors. A `%` is literal."""
    config = PipelineConfig()
    if path is None:
        return config
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(str(path), encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:  # its message may span lines
        raise PipelineError(f"config file {path}: {' '.join(str(exc).split())}") from None
    if not read:
        raise PipelineError(f"config file not found: {path}")
    if not parser.has_section(SECTION):
        raise PipelineError(f"config file {path} has no [{SECTION}] section")
    for other in parser.sections():  # [DEFAULT] is not one: its keys join [pipeline]'s
        if other != SECTION:
            raise PipelineError(f"config file {path}: unknown section [{other}]; "
                                f"every key goes under [{SECTION}]")
    homes = {"": config, **{part: getattr(config, part) for part in PARTS}}  # "": its own keys
    home_of = {f.name: name for name, home in homes.items() for f in fields(home) if f.name not in PARTS}
    updates: dict[str, dict] = {name: {} for name in homes}
    for key, raw in parser.items(SECTION):
        if key == "on_demand_verbalize":  # retired, but the benchmark's ondemand.ini still sets it
            logger.warning("config key %r has no effect: run-teacher fills every cache miss "
                           "from its graph", key)
            continue
        if key not in home_of:
            raise PipelineError(f"unknown config key {key!r}")
        name = home_of[key]
        updates[name][key] = _convert(key, type(getattr(homes[name], key)), raw)
    try:  # each dataclass checks its own bounds as it is built
        parts = {part: replace(homes[part], **updates[part]) for part in PARTS}
        return replace(config, **updates[""], **parts)
    except ValueError as exc:
        raise PipelineError(str(exc)) from None
