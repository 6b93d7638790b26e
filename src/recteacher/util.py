"""Small shared helpers: atomic writes, line-delimited JSON files, ordered fan-out."""

from __future__ import annotations

import json
import os
import secrets
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TextIO, TypeVar

from .errors import MalformedRecord

T = TypeVar("T")
R = TypeVar("R")


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


def ordered_map(
    func: Callable[[T], R],
    items: Iterable[T],
    width: int,
    window: int | None = None,
) -> Iterator[R]:
    """Yield func(item) for every item, in item order, with up to `width` calls running.

    The calls run on pool threads, never in the caller's, and a pool starts
    no thread until an item is submitted.
    Items are pulled from `items` only as they are submitted, at most `window`
    (default: no limit) beyond the last result handed back. A call that raised
    re-raises when its turn comes: calls not yet started are cancelled and the
    running ones are waited for first.
    """
    remaining = iter(items)
    pending: deque = deque()
    with ThreadPoolExecutor(max_workers=width) as pool:
        try:
            pending.extend(pool.submit(func, item) for item in islice(remaining, window))
            while pending:
                result = pending.popleft().result()
                pending.extend(pool.submit(func, item) for item in islice(remaining, 1))
                yield result
        finally:
            for future in pending:
                future.cancel()
