"""Shared helpers: atomic writes and streamed JSONL."""

from __future__ import annotations

import os
import stat

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
