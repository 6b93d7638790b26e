"""Shared helpers: atomic writes, appends and streamed JSONL."""

from __future__ import annotations

import os
import stat

import pytest

from recteacher import util
from recteacher.errors import MalformedRecord
from recteacher.util import append_jsonl, atomic_writer, read_jsonl, require_field, write_jsonl_atomic


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_atomic_writer_applies_the_umask(tmp_path, umask, mode):
    path = tmp_path / "out" / "artifact.jsonl"
    previous = os.umask(umask)
    try:
        with atomic_writer(path) as handle:
            handle.write("{\"id\": 1}\n")
    finally:
        os.umask(previous)
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert path.read_bytes() == b"{\"id\": 1}\n"
    assert os.listdir(path.parent) == ["artifact.jsonl"]  # no temp file left behind



def test_require_field_reads_null_as_absent_only_under_a_none_default():
    assert require_field({"rating": None}, "rating", float, None) is None
    assert require_field({}, "neighbors", list, []) == []
    assert require_field({"rating": 4}, "rating", float, None) == 4  # never converted
    with pytest.raises(ValueError, match="^neighbors must be a list$"):
        require_field({"neighbors": None}, "neighbors", list, [])
    with pytest.raises(ValueError, match="^missing 'text'$"):
        require_field({}, "text", str)
    with pytest.raises(ValueError, match="^rating must be a number$"):
        require_field({"rating": False}, "rating", float, None)
    assert require_field({"tool": True}, "tool") is True  # an untyped field takes any value


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


@pytest.mark.parametrize("existing, prefix", [
    (None, b""), (b"", b""), (b'{"id": 0}\n', b'{"id": 0}\n'), (b'{"id": 0}', b'{"id": 0}\n'),
], ids=["missing", "empty", "newline-ended", "unended"])
def test_append_jsonl_starts_each_record_on_a_line_of_its_own(tmp_path, existing, prefix):
    path = tmp_path / "cache.jsonl"
    if existing is not None:
        path.write_bytes(existing)
    append_jsonl(path, {"id": 1, "text": "café"})
    append_jsonl(path, {"id": 2})
    assert path.read_bytes() == prefix + '{"id": 1, "text": "café"}\n{"id": 2}\n'.encode("utf-8")


def test_append_jsonl_makes_the_directory(tmp_path):
    path = tmp_path / "new" / "dir" / "cache.jsonl"
    append_jsonl(path, {"id": 1})
    assert path.read_bytes() == b'{"id": 1}\n'


@pytest.mark.parametrize("line", [
    r'{"text": "bad \ud800 text"}',
    r'{"text": "low \udc00 alone"}',
    r'{"text": "pair reversed \ude00\ud83d"}',
    r'{"bad \ud800 key": 1}',
    r'{"nested": [{"text": "\udfff"}]}',
], ids=["high", "low", "reversed-pair", "key", "nested"])
def test_read_jsonl_refuses_a_lone_surrogate(tmp_path, line):
    path = tmp_path / "records.jsonl"
    path.write_text('{"text": "fine"}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as excinfo:
        list(read_jsonl(path))
    assert (excinfo.value.source, excinfo.value.line) == (str(path), 2)
    assert excinfo.value.reason.startswith("lone surrogate '\\ud")
    assert excinfo.value.reason.endswith("', which UTF-8 cannot encode")


def test_read_jsonl_reads_an_escaped_surrogate_pair_and_an_escaped_backslash(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text(r'{"text": "smile \ud83d\ude00"}' + "\n" + r'{"text": "not an escape \\ud800"}' + "\n",
                    encoding="utf-8")
    assert [record["text"] for _, record in read_jsonl(path)] == ["smile \U0001F600", "not an escape \\ud800"]
