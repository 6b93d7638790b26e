"""Flat INI configuration of the LLM gateway, shared by every CLI command.

Each key of the [pipeline] section is a field of `GatewayConfig`: the
endpoint and sampling. It checks its own bounds. Nothing else is a setting:
paths and the seed are flags, and the teacher's history window, tool round
bound and prompt dataset, and bucket-rl's rollout group, are constants
(`DEFAULT_WINDOW_M`, `DEFAULT_MAX_TOOL_ROUNDS`, `prompts.DEFAULT_DOMAIN`,
`rewards.DEFAULT_GROUP_SIZE`).

Precedence: --parallel overrides `max_parallel`; the environment supplies
only the API key (looked up by `api_key_env` at request time).
"""

from __future__ import annotations

import configparser
import logging
from dataclasses import fields
from pathlib import Path

from .errors import PipelineError
from .gateway import GatewayConfig

logger = logging.getLogger(__name__)

SECTION = "pipeline"


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


def load_config(path: Path | None) -> GatewayConfig:
    """Read the [pipeline] section; unknown keys and sections are errors. A `%` is literal."""
    if path is None:
        return GatewayConfig()
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
    kinds = {f.name: type(f.default) for f in fields(GatewayConfig)}
    values = {}
    for key, raw in parser.items(SECTION):
        if key == "on_demand_verbalize":  # retired, but the benchmark's ondemand.ini still sets it
            logger.warning("config key %r has no effect: run-teacher fills every cache miss "
                           "from its graph", key)
            continue
        if key not in kinds:
            raise PipelineError(f"unknown config key {key!r}")
        values[key] = _convert(key, kinds[key], raw)
    try:  # GatewayConfig checks its own bounds as it is built
        return GatewayConfig(**values)
    except ValueError as exc:
        raise PipelineError(str(exc)) from None
