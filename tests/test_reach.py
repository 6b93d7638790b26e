"""Every top-level function, class and constant under src/ is reached from other code.

A definition that no other statement under `src/` names is surface no
command reaches; a module-level assignment is a definition of each name it
binds. The only ones allowed are those the acceptance criteria pin, which
are wired in by later work rather than deleted, and one that only tests use:
- `rewards.format_reward` (criterion 8);
- `trajectory.outcome_filter` (criterion 5);
- `gateway.ScriptBackend`, the in-process backend of tests: no command builds
  it, and criteria 4 and 9 import it from `gateway`.

The check is by name: a definition counts as reached when any other
top-level statement under `src/` loads that name or an attribute of that
name. A new unreferenced definition fails it, and so does wiring in one of
them without removing it from PINNED.

Class members get one too: every dataclass field, method and property a
class under `src/` defines is loaded as an attribute somewhere under `src/`,
by name, as above; a dunder method is exempt, since Python calls it. The
only ones allowed are those PINNED_MEMBERS lists:
- `ChatReply.usage` and the two token counts of `ChatUsage`, which the
  token accounting of ROADMAP items 3 and 15 is to read;
- `ScriptBackend.sends` (criterion 4).

Config knobs get the same check: every field of every dataclass under
`src/` whose class name ends in `Config`, found by AST so that no list names
them, is read by some module under `src/` other than `config.py`.

Imports get one too: every name a module under `src/`, `tests/` or `tools/`
imports is used in that module, so a deletion leaves no import behind.

So do exception classes: every one defined under `src/` is named by some
`raise` under `src/`, so a class that is only caught or passed around, and
whose fault some other class therefore reports, fails it. And the kinds of
`GatewayError` and `TagError`: each kind in its tuple is the literal first
argument of some call of its class under `src/`, and no call passes another.

File writes have one home: no module under `src/` but `util.py` calls
`open`, `write_text`, `write_bytes` or `mkdir`, so how an artifact's bytes
reach the disk (atomic rename, append on a line of its own, the directory it
lands in) is decided in one place.

Parameters get one too: every parameter of every function and lambda under
`src/` but `self` and `cls` is loaded by name in its body, so an argument
passed and never read fails. The only ones allowed are those
PINNED_PARAMETERS lists:
- `Backend.send`'s `request`: the method is a Protocol stub, whose body is `...`;
- `teacher.run_teacher`'s `config`: criterion 9 passes it a `TeacherConfig()`.
"""

from __future__ import annotations

import ast
import builtins
from pathlib import Path
from typing import Iterable

from conftest import REPO_ROOT

from recteacher.errors import GATEWAY_ERROR_KINDS, TAG_ERROR_KINDS

SRC = REPO_ROOT / "src"
IMPORTING_DIRS = (SRC, REPO_ROOT / "tests", REPO_ROOT / "tools")
NOQA_UNUSED_IMPORT = "# noqa: F401"

PINNED = {
    "recteacher.gateway.ScriptBackend",
    "recteacher.rewards.format_reward",
    "recteacher.trajectory.outcome_filter",
}

PINNED_MEMBERS = {
    "recteacher.gateway.ChatReply.usage",
    "recteacher.gateway.ChatUsage.completion_tokens",
    "recteacher.gateway.ChatUsage.prompt_tokens",
    "recteacher.gateway.ScriptBackend.sends",
}

PINNED_PARAMETERS = {
    "recteacher.gateway.Backend.send.request",
    "recteacher.teacher.run_teacher.config",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def defined(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a def's or class's, or those an assignment binds."""
    if isinstance(stmt, DEFINITIONS):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]


def unreferenced(src: Path) -> set[str]:
    """Dotted names of the top-level definitions no other top-level statement names."""
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
        f"{module}.{name}"
        for module, stmt, _ in statements
        for name in defined(stmt)
        if not any(name in names for _, other, names in statements if other is not stmt)
    }


def test_only_the_pinned_definitions_are_unreferenced():
    assert unreferenced(SRC) == PINNED


def test_an_added_unreferenced_function_is_caught(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "def used():\n    return 1\n\n\ndef orphan():\n    return orphan()\n", encoding="utf-8")
    (package / "b.py").write_text("from .a import used\n\nVALUE = used()\n\nprint(VALUE)\n",
                                  encoding="utf-8")
    assert unreferenced(tmp_path) == {"pkg.a.orphan"}


def test_an_added_unreferenced_constant_is_caught(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "USED = {}\nUNUSED_MAP = {}\nTYPED: dict = {}\nLEFT, RIGHT = 1, 2\n\n\n"
        "def read():\n    return USED, TYPED, LEFT\n\n\nread()\n", encoding="utf-8")
    assert unreferenced(tmp_path) == {"pkg.a.UNUSED_MAP", "pkg.a.RIGHT"}


def unread_members(src: Path) -> set[str]:
    """Dotted names of the class members under `src` that no attribute load under `src` names.

    A member is a method or property (a def in the class body) or an
    annotated field; dunder methods are exempt. A store (`self.x = ...`) or
    a keyword argument naming a field does not read it.
    """
    members: dict[str, str] = {}  # dotted name -> member name
    loaded: set[str] = set()
    for path in sorted(src.rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        name = stmt.name
                    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        name = stmt.target.id
                    else:
                        continue
                    if not (name.startswith("__") and name.endswith("__")):
                        members[f"{module}.{node.name}.{name}"] = name
    return {dotted for dotted, name in members.items() if name not in loaded}


def test_only_the_pinned_members_are_unread():
    assert unread_members(SRC) == PINNED_MEMBERS


def test_an_added_unread_member_is_caught(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "from dataclasses import dataclass\n\n\n@dataclass\nclass Record:\n"
        "    read: int\n    written: int\n    unread: int = 0\n\n"
        "    def used(self):\n        return self.read\n\n"
        "    def unused(self):\n        return 0\n\n"
        "    @property\n    def shown(self):\n        return 1\n\n"
        "    def __len__(self):\n        return 1\n", encoding="utf-8")
    (package / "b.py").write_text(
        "from .a import Record\n\n\ndef make():\n    record = Record(1, written=2)\n"
        "    record.written = 3\n    return record.used(), len(record)\n", encoding="utf-8")
    # `written` is only stored and passed by keyword; `__len__` is called by len()
    assert unread_members(tmp_path) == {"pkg.a.Record.written", "pkg.a.Record.unread",
                                        "pkg.a.Record.unused", "pkg.a.Record.shown"}


def _last_name(node: ast.expr) -> str:
    """`config` for `config` and for `self.config`; empty for any other expression."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else ""


def unread_fields(src: Path, names: Iterable[str], home: str = "config.py") -> set[str]:
    """The `names` that no module under `src` other than `home` reads.

    A module reads a name when it loads it as an attribute of a config, that
    is of a name or attribute ending in `config` (`config.seed`,
    `self.config.model`, `gateway_config.endpoint`).
    """
    read: set[str] = set()
    for path in sorted(src.rglob("*.py")):
        if path.name == home:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and _last_name(node.value).endswith("config")):
                read.add(node.attr)
    return set(names) - read


def config_fields(src: Path) -> set[str]:
    """The field names of every dataclass under `src` whose class name ends in `Config`.

    A class is a dataclass when a decorator, plain, called or as an attribute
    (`@dataclass`, `@dataclass(frozen=True)`, `@dataclasses.dataclass`), is
    named `dataclass`; its fields are the annotated names of its body.
    """
    names: set[str] = set()
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if (isinstance(node, ast.ClassDef) and node.name.endswith("Config")
                    and any(_last_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
                            for d in node.decorator_list)):
                names |= {stmt.target.id for stmt in node.body
                          if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)}
    return names


def test_every_config_field_is_read_outside_the_config_module():
    names = config_fields(SRC)
    assert names  # the finder sees the gateway's settings at least
    assert unread_fields(SRC, names) == set()


def test_an_added_unread_config_field_is_caught(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "config.py").write_text(
        "class Config:\n    a: int = 0\n    b: int = 0\n    scratch: int = 0\n\n"
        "    def check(self):\n        return self.scratch >= 0\n", encoding="utf-8")
    (package / "cli.py").write_text(
        "def run(config, gateway_config, args):\n"
        "    return gateway_config.a, config.gateway.b, args.scratch\n",
        encoding="utf-8")
    # `a` is read as an attribute of a config; `b` only of `config.gateway`, whose
    # name does not end in `config`; `scratch` only in config.py and of another object
    assert unread_fields(tmp_path, ["a", "b", "scratch"]) == {"b", "scratch"}


def test_an_added_unread_field_of_a_new_config_class_is_caught(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "import dataclasses\nfrom dataclasses import dataclass\n\n\n"
        "@dataclass\nclass OldConfig:\n    read: int = 0\n\n\n"
        "@dataclasses.dataclass(frozen=True)\nclass NewConfig:\n    added: int = 0\n\n\n"
        "class PlainConfig:\n    plain: int = 0\n\n\n"
        "@dataclass\nclass Record:\n    other: int = 0\n", encoding="utf-8")
    (package / "b.py").write_text("def run(config):\n    return config.read\n", encoding="utf-8")
    # PlainConfig is no dataclass and Record no config, so neither is checked
    assert config_fields(tmp_path) == {"read", "added"}
    assert unread_fields(tmp_path, config_fields(tmp_path)) == {"added"}


def unused_imports(path: Path) -> list[str]:
    """`path:line: name` for each name the module imports and never uses.

    A name is used when the module loads it anywhere, itself or through an
    attribute (`json` in `json.dumps`); `import a.b` binds `a`. Imports from
    `__future__` and import statements marked `# noqa: F401` are exempt.
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any(NOQA_UNUSED_IMPORT in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{path}:{node.lineno}: {name}")
    return unused


def test_every_imported_name_is_used():
    paths = sorted(path for root in IMPORTING_DIRS for path in root.rglob("*.py"))
    assert [line for path in paths for line in unused_imports(path)] == []


def test_an_added_unused_import_is_caught(tmp_path):
    path = tmp_path / "a.py"
    path.write_text(
        "from __future__ import annotations\n\nimport json\nimport os.path\n"
        "from typing import (\n    Any,\n    Iterator,\n)\n"
        "from pathlib import Path as P  # noqa: F401\n\n\n"
        "def f() -> Iterator:\n    return os.path.join(P.cwd())\n", encoding="utf-8")
    assert unused_imports(path) == [f"{path}:3: json", f"{path}:5: Any"]


FILE_OPENERS = {"open", "write_text", "write_bytes", "mkdir", "makedirs"}


def file_openers(src: Path, home: str = "util.py") -> set[str]:
    """`path:line: name` for each call under `src`, outside `home`, that opens or writes a file or makes a directory.

    A call counts by the name it calls, plain or as an attribute
    (`open(...)`, `os.open(...)`, `path.write_text(...)`, `out.mkdir(...)`,
    `os.makedirs(...)`); reading a whole file with `read_text` does not.
    """
    found = set()
    for path in sorted(src.rglob("*.py")):
        if path.name == home:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Call) and _last_name(node.func) in FILE_OPENERS:
                found.add(f"{path}:{node.lineno}: {_last_name(node.func)}")
    return found


def test_only_util_opens_a_file():
    assert file_openers(SRC) == set()


def test_a_file_opened_outside_util_is_caught(tmp_path):
    (tmp_path / "util.py").write_text("def append(path):\n    return open(path, 'a')\n", encoding="utf-8")
    (tmp_path / "cache.py").write_text(
        "import os\n\n\ndef put(path, text):\n    with path.open('a') as handle:\n"
        "        handle.write(text)\n    os.open(path, os.O_RDONLY)\n    path.write_bytes(b'')\n"
        "    path.parent.mkdir(exist_ok=True)\n    os.makedirs(path.parent, exist_ok=True)\n"
        "    return path.read_text()\n", encoding="utf-8")
    cache = tmp_path / "cache.py"
    assert file_openers(tmp_path) == {f"{cache}:5: open", f"{cache}:7: open", f"{cache}:8: write_bytes",
                                      f"{cache}:9: mkdir", f"{cache}:10: makedirs"}


def unraised_exceptions(src: Path) -> set[str]:
    """Dotted names of the exception classes under `src` that no `raise` under `src` names.

    A class is an exception class when one of its bases, by name, is a builtin
    exception or an exception class under `src`. A raise names a class when
    its exception is the class or a call of it, plain or as an attribute
    (`raise errors.X(...)`); naming it in an `except` or passing it along
    does not count.
    """
    classes: dict[str, tuple[str, set[str]]] = {}  # name -> (dotted name, base names)
    raised: set[str] = set()
    for path in sorted(src.rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = (f"{module}.{node.name}", {_last_name(base) for base in node.bases})
            elif isinstance(node, ast.Raise) and node.exc is not None:
                raised.add(_last_name(node.exc.func if isinstance(node.exc, ast.Call) else node.exc))
    exceptions = {name for name, value in vars(builtins).items()
                  if isinstance(value, type) and issubclass(value, BaseException)}
    while True:
        found = {name for name, (_, bases) in classes.items() if bases & exceptions} - exceptions
        if not found:
            break
        exceptions |= found
    return {dotted for name, (dotted, _) in classes.items() if name in exceptions and name not in raised}


def test_every_exception_class_is_raised():
    assert unraised_exceptions(SRC) == set()


def test_an_exception_class_only_caught_is_caught(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "errors.py").write_text(
        "class Base(Exception):\n    pass\n\n\nclass Raised(Base):\n    pass\n\n\n"
        "class OnlyCaught(Base):\n    pass\n\n\nclass Plain:\n    pass\n", encoding="utf-8")
    (package / "use.py").write_text(
        "from . import errors\nfrom .errors import Base, OnlyCaught\n\n\n"
        "def f(flag):\n    try:\n        if flag:\n            raise errors.Raised(flag)\n"
        "        raise Base\n    except OnlyCaught:\n        return OnlyCaught\n", encoding="utf-8")
    assert unraised_exceptions(tmp_path) == {"pkg.errors.OnlyCaught"}


def passed_kinds(src: Path, cls: str) -> set[str]:
    """The first arguments of every call of `cls` under `src`, plain or as an attribute.

    A string literal stands for itself; any other expression, or a call with
    no argument, for its source text, so a kind computed at run time never
    matches a kind tuple.
    """
    kinds = set()
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Call) and _last_name(node.func) == cls:
                first = node.args[0] if node.args else node
                literal = isinstance(first, ast.Constant) and isinstance(first.value, str)
                kinds.add(first.value if literal else ast.unparse(first))
    return kinds


def test_every_error_kind_is_raised_and_no_other():
    assert passed_kinds(SRC, "GatewayError") == set(GATEWAY_ERROR_KINDS)
    assert passed_kinds(SRC, "TagError") == set(TAG_ERROR_KINDS)


def test_an_error_kind_never_raised_is_caught(tmp_path):
    (tmp_path / "use.py").write_text(
        "from . import errors\nfrom .errors import KINDS, KindError\n\n\n"
        'def f(kind):\n    if kind:\n        raise errors.KindError("used", "x")\n'
        "    raise KindError(KINDS[kind])\n", encoding="utf-8")
    # so KINDS = ("used", "scratch") fails the check twice: "scratch" is never
    # passed, and the computed kind is not a literal of the tuple
    assert passed_kinds(tmp_path, "KindError") == {"used", "KINDS[kind]"}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def unread_parameters(src: Path) -> set[str]:
    """`module.Qualified.name.parameter` for each parameter under `src` its function never loads.

    Every parameter counts, positional, keyword-only, `*args` and `**kwargs`
    alike, but `self` and `cls`. A function's body includes the functions
    nested in it, so a closure that reads a parameter reads it; a lambda is
    named `<lambda>` within the function that holds it.
    """
    unread = set()

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, FUNCTIONS):
                name = f"{prefix}.{getattr(child, 'name', '<lambda>')}"
                params = child.args
                body = [child.body] if isinstance(child, ast.Lambda) else child.body
                loaded = {n.id for part in body for n in ast.walk(part)
                          if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                for arg in [*params.posonlyargs, *params.args, *params.kwonlyargs,
                            *filter(None, [params.vararg, params.kwarg])]:
                    if arg.arg not in loaded | {"self", "cls"}:
                        unread.add(f"{name}.{arg.arg}")
            elif isinstance(child, ast.ClassDef):
                name = f"{prefix}.{child.name}"
            visit(child, name)

    for path in sorted(src.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)),
              ".".join(path.relative_to(src).with_suffix("").parts))
    return unread


def test_only_the_pinned_parameters_are_unread():
    assert unread_parameters(SRC) == PINNED_PARAMETERS


def test_an_added_unread_parameter_is_caught(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "def run(args, config, *rest, flag=False, **options):\n"
        "    def inner(value, unused):\n        return value, args\n\n"
        "    config = 1\n    return inner(flag, 0), sorted(rest, key=lambda item, spare=0: item)\n\n\n"
        "class Runner:\n    def go(self, target):\n        return 0\n\n"
        "    @classmethod\n    def make(cls, seed):\n        return seed\n", encoding="utf-8")
    # `config` is only stored, never loaded; `args` is read by the closure; self and cls are exempt
    assert unread_parameters(tmp_path) == {
        "pkg.a.run.config", "pkg.a.run.options", "pkg.a.run.inner.unused",
        "pkg.a.run.<lambda>.spare", "pkg.a.Runner.go.target"}
