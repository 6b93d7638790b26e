"""Every top-level function and class under src/ is reached from other code.

A definition that no other statement under `src/` names is surface no
command reaches. The only ones allowed are those the acceptance criteria
pin, which are wired in by later work rather than deleted:
- `evaluate.best_of_k` (criterion 6);
- `rewards.format_reward` (criterion 8);
- `trajectory.outcome_filter` (criterion 5).

The check is by name: a definition counts as reached when any other
top-level statement under `src/` loads that name or an attribute of that
name. A new unreferenced definition fails it, and so does wiring in one of
the three without removing it from PINNED.
"""

from __future__ import annotations

import ast
from pathlib import Path

from conftest import REPO_ROOT

SRC = REPO_ROOT / "src"

PINNED = {
    "recteacher.evaluate.best_of_k",
    "recteacher.rewards.format_reward",
    "recteacher.trajectory.outcome_filter",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreferenced(src: Path) -> set[str]:
    """Dotted names of top-level defs and classes no other top-level statement names."""
    statements: list[tuple[str, ast.stmt, set[str]]] = []
    for path in sorted(src.rglob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
            module = ".".join(path.relative_to(src).with_suffix("").parts)
            statements.append((module, stmt, names))
    return {
        f"{module}.{stmt.name}"
        for module, stmt, _ in statements
        if isinstance(stmt, DEFINITIONS)
        and not any(stmt.name in names for _, other, names in statements if other is not stmt)
    }


def test_only_the_pinned_definitions_are_unreferenced():
    assert unreferenced(SRC) == PINNED


def test_an_added_unreferenced_function_is_caught(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "def used():\n    return 1\n\n\ndef orphan():\n    return orphan()\n", encoding="utf-8")
    (package / "b.py").write_text("from .a import used\n\nVALUE = used()\n", encoding="utf-8")
    assert unreferenced(tmp_path) == {"pkg.a.orphan"}
