"""Shared helpers: atomic writes, streamed JSONL and ordered fan-out."""

from __future__ import annotations

import os
import stat
import threading
import time

import pytest

from recteacher import util
from recteacher.util import write_atomic, write_jsonl_atomic


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_write_atomic_applies_the_umask(tmp_path, umask, mode):
    path = tmp_path / "out" / "artifact.jsonl"
    previous = os.umask(umask)
    try:
        write_atomic(path, "{\"id\": 1}\n")
    finally:
        os.umask(previous)
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert path.read_bytes() == b"{\"id\": 1}\n"
    assert os.listdir(path.parent) == ["artifact.jsonl"]  # no temp file left behind



def test_write_jsonl_atomic_failure_keeps_the_old_file(tmp_path):
    path = tmp_path / "sessions.jsonl"
    path.write_bytes(b"old contents\n")

    def records():
        yield {"id": 1}
        yield {"id": 2}
        raise RuntimeError("session 3 failed")

    with pytest.raises(RuntimeError, match="session 3 failed"):
        write_jsonl_atomic(path, records())
    assert path.read_bytes() == b"old contents\n"
    assert os.listdir(tmp_path) == ["sessions.jsonl"]


@pytest.mark.parametrize("records", [[], [{"id": 1}], [{"id": 1, "text": "café"}, [2, 3], "x"]])
def test_write_jsonl_atomic_bytes(tmp_path, records):
    path = tmp_path / "out.jsonl"
    assert write_jsonl_atomic(path, iter(records)) == len(records)
    lines = [util.dump_json_line(record) for record in records]
    expected = "\n".join(lines) + "\n" if lines else ""
    assert path.read_bytes() == expected.encode("utf-8")


def test_write_jsonl_atomic_serializes_each_record_before_pulling_the_next(tmp_path, monkeypatch):
    dumped: list[int] = []
    dump = util.dump_json_line

    def counting_dump(obj):
        dumped.append(obj["i"])
        return dump(obj)

    monkeypatch.setattr(util, "dump_json_line", counting_dump)

    def records():
        for i in range(4):
            # the temp file is open before the first pull, and every record
            # pulled so far has been serialized
            assert len(list(tmp_path.glob(".out.jsonl.*.tmp"))) == 1
            assert dumped == list(range(i))
            yield {"i": i}

    assert write_jsonl_atomic(tmp_path / "out.jsonl", records()) == 4
    assert dumped == [0, 1, 2, 3]


def test_ordered_map_yields_in_item_order_when_calls_finish_out_of_order():
    last_done = threading.Event()
    finished: list[int] = []

    def func(i):
        if i < 2:
            assert last_done.wait(5)  # items 0 and 1 finish after item 2
        finished.append(i)
        if i == 2:
            last_done.set()
        return i * 10

    assert list(util.ordered_map(func, range(3), 3)) == [0, 10, 20]
    assert finished[0] == 2


@pytest.mark.parametrize("width, window", [(1, 1), (2, 3), (4, 2)])
def test_ordered_map_pulls_at_most_window_items_beyond_the_last_result(width, window):
    pulled: list[int] = []

    def items():
        for i in range(10):
            pulled.append(i)
            yield i

    results = util.ordered_map(lambda i: i, items(), width, window=window)
    assert pulled == []  # nothing is pulled before the first result is asked for
    handed = 0
    for result in results:
        assert result == handed
        handed += 1
        assert len(pulled) <= handed + window
    assert handed == 10


def test_ordered_map_raises_the_first_failure_after_running_calls_finish():
    lock = threading.Lock()
    started: set[int] = set()
    finished: set[int] = set()

    def func(i):
        with lock:
            started.add(i)
        if i == 0:
            time.sleep(0.05)  # item 1 fails first in time
            raise ValueError("item 0")
        if i == 1:
            raise RuntimeError("item 1")
        time.sleep(0.2)
        with lock:
            finished.add(i)
        return i

    with pytest.raises(ValueError, match="item 0"):
        list(util.ordered_map(func, range(10), 2))
    # the calls that were running when item 0 failed had finished before the
    # raise; each worker took at most one more item, and the rest were
    # cancelled before they started
    assert finished == started - {0, 1}
    assert started <= {0, 1, 2, 3}


def test_ordered_map_width_one_matches_width_three():
    def func(i):
        time.sleep(0.001 * (i % 3))
        return i * i

    assert list(util.ordered_map(func, range(12), 1)) == [i * i for i in range(12)]
    assert list(util.ordered_map(func, range(12), 1)) == list(util.ordered_map(func, range(12), 3))


def test_ordered_map_of_nothing_starts_no_thread(monkeypatch):
    starts: list[threading.Thread] = []
    monkeypatch.setattr(threading.Thread, "start", lambda thread: starts.append(thread))

    def never(item):
        raise AssertionError("called on an empty input")

    assert list(util.ordered_map(never, [], 1)) == []
    assert starts == []
