"""Prompt template loading and rendering.

The templates that ship as package data under ``templates/`` hold the system
prompts and the summarizer's and verbalizers' user turns. Some prompt text is
still built in code: the instance prompt's section headers here, the teacher's
preceding-outputs block, correction header and re-ask text, and verbalize's
target headers. Rendering replaces only ``{word}`` placeholders whose key is
supplied; everything else (including JSON examples with braces) passes through
untouched. Corpus items, users and interactions become prompt lines here only.
"""

from __future__ import annotations

from datetime import datetime, timezone
from functools import lru_cache
from importlib import resources
import re
from typing import Mapping, Sequence

from .corpus import Interaction, ItemMeta

DEFAULT_DOMAIN = "goodreads"
REVIEW_EXCERPT_CHARS = 300  # cap per rendered review

_TEMPLATES = resources.files(__package__) / "templates"

# Every packaged template, sorted; the directory is the one list.
TEMPLATE_FILES: tuple[str, ...] = tuple(sorted(
    entry.name for entry in _TEMPLATES.iterdir() if entry.name.endswith(".txt")
))

# Only lowercase word placeholders; JSON braces in examples never match.
_PLACEHOLDER = re.compile(r"\{([a-z_]+)\}")


@lru_cache(maxsize=None)
def _packaged(name: str) -> str:
    return (_TEMPLATES / name).read_text(encoding="utf-8")


def load_template(name: str) -> str:
    """Return the raw text of a packaged template."""
    if name not in TEMPLATE_FILES:
        raise KeyError(f"unknown template {name!r}")
    return _packaged(name)


def render(text: str, values: Mapping[str, str]) -> str:
    return _PLACEHOLDER.sub(lambda m: values.get(m.group(1), m.group(0)), text)


def _load_rendered(name: str, values: Mapping[str, str]) -> str:
    return render(load_template(name), values)


def planner_system(domain: str = DEFAULT_DOMAIN) -> str:
    return _load_rendered("planner.txt", {"domain": domain})


def subtask_system(tag: str, domain: str = DEFAULT_DOMAIN) -> str:
    """The system prompt of the analysis agent whose phase tag is `tag`, from `<tag>.txt`."""
    values = {
        "domain": domain,
        "tool_protocol": load_template("tool_protocol.txt").rstrip("\n"),
        "subtask_output": load_template("subtask_output.txt").rstrip("\n"),
    }
    return _load_rendered(f"{tag}.txt", values)


def reflector_system(domain: str = DEFAULT_DOMAIN) -> str:
    return _load_rendered("reflector.txt", {"domain": domain})


def ranker_system(domain: str = DEFAULT_DOMAIN) -> str:
    values = {
        "domain": domain,
        "tool_protocol": load_template("tool_protocol.txt").rstrip("\n"),
    }
    return _load_rendered("ranker.txt", values)


def student_system() -> str:
    return load_template("student_system.txt")


def history_summary_system(domain: str = DEFAULT_DOMAIN) -> str:
    return _load_rendered("history_summary.txt", {"domain": domain})


def history_summary_user(user_block: str, previous_summary: str, chunk_block: str) -> str:
    values = {
        "user_block": user_block,
        "previous_summary": previous_summary if previous_summary else "(no previous summary)",
        "chunk_block": chunk_block,
    }
    return _load_rendered("history_summary_user.txt", values)


def item_evidence_system(domain: str = DEFAULT_DOMAIN) -> str:
    return _load_rendered("item_evidence_system.txt", {"domain": domain})


def user_evidence_system(domain: str = DEFAULT_DOMAIN) -> str:
    return _load_rendered("user_evidence_system.txt", {"domain": domain})


def evidence_user(
    target_block: str,
    neighbor_header: str,
    neighbor_block: str,
    extra_keys: Sequence[str] = (),
) -> str:
    extra = "\n".join(f"> {key} (Item attribute)" for key in extra_keys)
    values = {
        "extra_key_definitions": extra,
        "target_block": target_block,
        "neighbor_header": neighbor_header,
        "neighbor_block": neighbor_block,
    }
    return _load_rendered("evidence_user.txt", values)


def render_item_line(item: str, title: str, attributes: Mapping[str, str]) -> str:
    parts = [f"item_id: {item}", f"title: {title}"]
    parts.extend(f"{key}: {attributes[key]}" for key in sorted(attributes))
    return " | ".join(parts)


def render_user_line(user: str, attributes: Mapping[str, str]) -> str:
    parts = [f"user_id: {user}"]
    parts.extend(f"{key}: {attributes[key]}" for key in sorted(attributes))
    return " | ".join(parts)


def render_interaction(interaction: Interaction, items: Mapping[str, ItemMeta]) -> str:
    stamp = datetime.fromtimestamp(interaction.timestamp, tz=timezone.utc)
    parts = [f"Review time: {stamp.strftime('%Y-%m-%d-%I%p')}", f"item_id: {interaction.item}",
             f"title: {items[interaction.item].title}"]
    if interaction.rating is not None:
        parts.append(f"rating: {interaction.rating:g}")
    if interaction.review_text:
        excerpt = interaction.review_text[:REVIEW_EXCERPT_CHARS]
        parts.append(f'user review text: "{excerpt}"')
    return " ".join(parts)


def item_lines(ids: Sequence[str], items: Mapping[str, ItemMeta]) -> tuple[list[str], set[str]]:
    """The prompt line of each item in `ids`, and the union of their attribute keys."""
    lines: list[str] = []
    keys: set[str] = set()
    for item in ids:
        meta = items[item]
        keys.update(meta.attributes)
        lines.append(render_item_line(item, meta.title, meta.attributes))
    return lines, keys


def render_instance_prompt(
    user: str,
    user_attributes: Mapping[str, str],
    long_term_summary: str,
    recent_lines: Sequence[str],
    candidate_lines: Sequence[str],
    item_keys: Sequence[str] = (),
) -> str:
    """Assemble the per-instance user prompt fed to planner/subtask/ranker agents."""
    lines: list[str] = ["# User Information"]
    lines.append("> User Key Definitions:")
    lines.append(f"> user_id: User's unique identifier. (Value: {user})")
    for key in sorted(user_attributes):
        lines.append(f"> {key}: {user_attributes[key]}")
    lines.append("# Long-term User Behavior Summary")
    lines.append(long_term_summary if long_term_summary else "(no long-term summary)")
    lines.append("# User Behavior (Recent Activity)")
    lines.append("> Item Key Definition:")
    lines.append("> item_id (Unique item identifier)")
    lines.append("> title (Item title)")
    for key in item_keys:
        lines.append(f"> {key} (Item attribute)")
    for index, text in enumerate(recent_lines, start=1):
        lines.append(f"{index}. {text}")
    lines.append("# Candidate Item Information")
    for index, text in enumerate(candidate_lines, start=1):
        lines.append(f"{index}. {text}")
    return "\n".join(lines)
