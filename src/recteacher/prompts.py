"""Prompt template loading and rendering.

The templates that ship as package data under ``templates/`` hold the system
prompts and the summarizer's and verbalizers' user turns. Some prompt text is
still built in code: the instance prompt's section headers here, the teacher's
preceding-outputs block, correction header and re-ask text, and verbalize's
target headers. Rendering replaces only ``{word}`` placeholders whose key is
supplied; everything else (including JSON examples with braces) passes through
untouched. Corpus items, users and interactions become prompt lines here only,
and every corpus string in them is rendered on one line (`one_line`).
"""

from __future__ import annotations

from datetime import datetime, timezone
from functools import lru_cache
from importlib import resources
import re
from typing import Mapping, Sequence

from .corpus import Interaction, ItemMeta

# The dataset the system prompts name. Fixed, so an evidence cache and the
# sessions that read it come from the same prompts.
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


def _load_rendered(name: str, **values: str) -> str:
    """Template `name` with `values` filled in, and `{domain}` with DEFAULT_DOMAIN."""
    return render(load_template(name), {"domain": DEFAULT_DOMAIN, **values})


def planner_system() -> str:
    return _load_rendered("planner.txt")


def subtask_system(tag: str) -> str:
    """The system prompt of the analysis agent whose phase tag is `tag`, from `<tag>.txt`."""
    return _load_rendered(f"{tag}.txt",
                          tool_protocol=load_template("tool_protocol.txt").rstrip("\n"),
                          subtask_output=load_template("subtask_output.txt").rstrip("\n"))


def reflector_system() -> str:
    return _load_rendered("reflector.txt")


def ranker_system() -> str:
    return _load_rendered("ranker.txt", tool_protocol=load_template("tool_protocol.txt").rstrip("\n"))


def student_system() -> str:
    return load_template("student_system.txt")


def history_summary_system() -> str:
    return _load_rendered("history_summary.txt")


def history_summary_user(user_block: str, previous_summary: str, chunk_block: str) -> str:
    return _load_rendered(
        "history_summary_user.txt",
        user_block=user_block,
        previous_summary=previous_summary if previous_summary else "(no previous summary)",
        chunk_block=chunk_block,
    )


def item_evidence_system() -> str:
    return _load_rendered("item_evidence_system.txt")


def user_evidence_system() -> str:
    return _load_rendered("user_evidence_system.txt")


def evidence_user(
    target_block: str,
    neighbor_header: str,
    neighbor_block: str,
    extra_keys: Sequence[str] = (),
) -> str:
    extra = "\n".join(f"> {one_line(key)} (Item attribute)" for key in extra_keys)
    return _load_rendered(
        "evidence_user.txt",
        extra_key_definitions=extra,
        target_block=target_block,
        neighbor_header=neighbor_header,
        neighbor_block=neighbor_block,
    )


def one_line(text: str) -> str:
    """`text` with its line breaks turned to spaces, so corpus text cannot start a prompt line of its own."""
    return " ".join(text.splitlines())


def _attribute_parts(attributes: Mapping[str, str]) -> list[str]:
    return [f"{one_line(key)}: {one_line(attributes[key])}" for key in sorted(attributes)]


def render_item_line(item: str, title: str, attributes: Mapping[str, str]) -> str:
    return " | ".join([f"item_id: {item}", f"title: {one_line(title)}", *_attribute_parts(attributes)])


def render_user_line(user: str, attributes: Mapping[str, str]) -> str:
    return " | ".join([f"user_id: {user}", *_attribute_parts(attributes)])


def render_interaction(interaction: Interaction, items: Mapping[str, ItemMeta]) -> str:
    stamp = datetime.fromtimestamp(interaction.timestamp, tz=timezone.utc)
    parts = [f"Review time: {stamp.strftime('%Y-%m-%d-%I%p')}", f"item_id: {interaction.item}",
             f"title: {one_line(items[interaction.item].title)}"]
    if interaction.rating is not None:
        parts.append(f"rating: {interaction.rating:g}")
    if interaction.review_text:
        excerpt = one_line(interaction.review_text)[:REVIEW_EXCERPT_CHARS]
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
    lines.extend(f"> {part}" for part in _attribute_parts(user_attributes))
    lines.append("# Long-term User Behavior Summary")
    lines.append(long_term_summary if long_term_summary else "(no long-term summary)")
    lines.append("# User Behavior (Recent Activity)")
    lines.append("> Item Key Definition:")
    lines.append("> item_id (Unique item identifier)")
    lines.append("> title (Item title)")
    lines.extend(f"> {one_line(key)} (Item attribute)" for key in item_keys)
    for index, text in enumerate(recent_lines, start=1):
        lines.append(f"{index}. {text}")
    lines.append("# Candidate Item Information")
    for index, text in enumerate(candidate_lines, start=1):
        lines.append(f"{index}. {text}")
    return "\n".join(lines)
