"""Small shared helpers: atomic writes, line-delimited JSON files and their record fields."""

from __future__ import annotations

import json
import os
import secrets
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TextIO, TypeVar

from .errors import MalformedRecord

T = TypeVar("T")


def _create_temp(path: Path) -> tuple[int, Path]:
    """Create a fresh temp file beside `path`.

    Mode 0o666 lets the process umask apply, as it would to a plain open().
    """
    while True:
        tmp = path.parent / f".{path.name}.{secrets.token_hex(4)}.tmp"
        try:
            return os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666), tmp
        except FileExistsError:
            continue


@contextmanager
def atomic_path(path: str | Path) -> Iterator[Path]:
    """Yield the path of a new empty temp file beside `path`, renamed over it on success.

    On any exception the temp file is removed and `path` is left as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = _create_temp(path)
    os.close(fd)
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@contextmanager
def atomic_writer(path: str | Path) -> Iterator[TextIO]:
    """Yield a text handle on a temp file beside `path`, renamed over it on success.

    On any exception the temp file is removed and `path` is left as it was.
    """
    with atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8") as handle:
        yield handle


def write_atomic(path: str | Path, text: str) -> None:
    """Write text via a temp file in the same directory, then rename."""
    with atomic_writer(path) as handle:
        handle.write(text)


def dump_json_line(obj: Any) -> str:
    return json.dumps(obj, ensure_ascii=False)


def write_jsonl_atomic(path: str | Path, records: Iterable[Any]) -> int:
    """Write one JSON object per line, each as it is pulled. Returns the record count."""
    count = 0
    with atomic_writer(path) as handle:
        for record in records:
            handle.write(dump_json_line(record) + "\n")
            count += 1
    return count


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, record) per non-blank line; a line not one JSON object raises MalformedRecord."""
    path = Path(path)
    with path.open("rb") as handle:
        for lineno, raw in enumerate(handle, 1):
            try:
                stripped = raw.decode("utf-8").strip()
                if not stripped:
                    continue
                record = json.loads(stripped)
            except UnicodeDecodeError as exc:
                raise MalformedRecord(lineno, f"invalid UTF-8: {exc}", source=str(path)) from exc
            except json.JSONDecodeError as exc:
                raise MalformedRecord(lineno, f"invalid JSON: {exc}", source=str(path)) from exc
            if not isinstance(record, dict):
                raise MalformedRecord(lineno, "record is not a JSON object", source=str(path))
            yield lineno, record


def decode_jsonl(path: str | Path, decode: Callable[[Any], T], skip: int = 0) -> Iterator[tuple[int, T]]:
    """(line number, decode(record)) per record of `read_jsonl` after the first `skip`.

    A ValueError from decode raises MalformedRecord naming the file and line.
    """
    for lineno, obj in islice(read_jsonl(path), skip, None):
        try:
            value = decode(obj)
        except ValueError as exc:
            raise MalformedRecord(lineno, str(exc), source=str(path)) from None
        yield lineno, value


_REQUIRED: Any = object()
_KIND_NAMES = {str: "a string", int: "an integer", float: "a number", list: "a list"}


def require_field(record: dict, key: str, kind: type = object, default: Any = _REQUIRED) -> Any:
    """record[key], unconverted; ValueError `missing 'key'` or `key must be a string|an integer|...`.

    An absent key is `default` where one is given, and a JSON null is absent
    only where that default is None. A JSON true or false is never an integer
    or a number; a `float` field takes any JSON number.
    """
    if key not in record or (default is None and record[key] is None):
        if default is _REQUIRED:
            raise ValueError(f"missing {key!r}")
        return default
    value = record[key]
    json_type = (int, float) if kind is float else kind
    if kind is not object and (isinstance(value, bool) or not isinstance(value, json_type)):
        raise ValueError(f"{key} must be {_KIND_NAMES[kind]}")
    return value


def unique_ids(decode: Callable[[Any], tuple[str, T]], what: str) -> Callable[[Any], tuple[str, T]]:
    """`decode`, returning (id, value), that raises ValueError on an id it returned before.

    One decoder remembers the ids of every file it decodes, so a repeated id
    is the record that repeats it, in whichever file that is.
    """
    seen: set[str] = set()

    def decode_once(obj: Any) -> tuple[str, T]:
        record_id, value = decode(obj)
        if record_id in seen:
            raise ValueError(f"duplicate {what} {record_id!r}")
        seen.add(record_id)
        return record_id, value

    return decode_once
