"""Command-line interface: exit codes, printed lines, and artifact shapes."""

from __future__ import annotations

import filecmp
import json
import logging
import os
import re
import shlex
import threading
import time
from fractions import Fraction

import pytest

from conftest import no_send, steer_oracle, toy_chain
from recteacher.abstract import SUMMARIZER
from recteacher.cli import build_parser, main
from recteacher.corpus import TIMESTAMP_MAX
from recteacher.errors import GatewayError
from recteacher.evaluate import COLD_USER_MAX_HISTORY
from recteacher.graph import InteractionGraph, load_graph, save_graph
from recteacher.teacher import MISS_FALLBACK, Phase
from recteacher.util import read_jsonl


def records_of(path):
    return [record for _, record in read_jsonl(path)]


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """Full mock-backend pipeline over the toy corpus, built once."""
    root = tmp_path_factory.mktemp("pipeline")
    paths = {**toy_chain(root, verbalize=True, limit=6),
             "sessions": root / "sessions.jsonl", "kept": root / "kept.jsonl"}
    steps = [
        ["run-teacher", "--corpus", str(paths["corpus"]), "--graph", str(paths["graph"]),
         "--cache", str(paths["cache"]), "--instances", str(paths["instances"]),
         "--out", str(paths["sessions"]), "--backend", "mock"],
        ["filter", "--sessions", str(paths["sessions"]), "--out", str(paths["kept"])],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    return paths


def test_readme_commands_parse(capsys):
    from conftest import REPO_ROOT

    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    commands = [
        shlex.split(line, comments=True)[1:]
        for block in re.findall(r"```sh\n(.*?)```", readme, re.DOTALL)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("recteacher ")
    ]
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: recteacher {shlex.join(argv)}\n"
                        f"{capsys.readouterr().err}")
    # every subcommand is shown at least once
    assert {argv[0] for argv in commands} == set(parser._subparsers._group_actions[0].choices)


def test_readme_names_no_flag_the_parser_lacks():
    from conftest import REPO_ROOT

    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    parser = build_parser()
    options = {option for subparser in parser._subparsers._group_actions[0].choices.values()
               for action in subparser._actions for option in action.option_strings}
    lines = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.DOTALL)
             for line in block.replace("\\\n", " ").splitlines()]
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", readme, flags=re.DOTALL))
    # another program's flags are its own: pip's, or a .py script's
    ours = [text for text in [*lines, *spans] if text.split()
            and not (text.split()[0] in ("pip", "python") or text.split()[0].endswith(".py"))]
    named = {flag for text in ours for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text)}
    assert named and named - options == set()


def test_readme_walkthrough_runs(tmp_path, capsys):
    from conftest import REPO_ROOT, TOY_DIR

    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    walkthrough = readme.split("## CLI walkthrough", 1)[1]
    block = re.search(r"```sh\n(.*?)```", walkthrough, re.DOTALL).group(1)
    places = {"data/toy/": f"{TOY_DIR}/", "out/": f"{tmp_path}/"}
    ran, checked, printed = 0, 0, []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("recteacher "):
            argv = [next((place + arg[len(prefix):] for prefix, place in places.items()
                          if arg.startswith(prefix)), arg) for arg in shlex.split(line)[1:]]
            assert main(argv) == 0, line
            printed = capsys.readouterr().out.splitlines()
            ran += 1
        elif line.startswith("# prints: "):
            assert line.removeprefix("# prints: ") in printed, line
            checked += 1
    assert (ran, checked) == (9, 1)


def test_usage_errors_exit_2(tmp_path, capsys):
    for argv in ([], ["run-teacher", "--no-such-flag"], ["verbalize", "--backend", "mock", "--script", "r.json"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2, argv
    capsys.readouterr()
    # an empty path would name the current directory: a shard directory, a
    # file to open, or, for --config, no file at all
    out = str(tmp_path / "out.jsonl")
    for flag, argv in (("--sessions", ["filter", "--sessions", "", "--out", out]),
                       ("--config", ["verbalize", "--config", "", "--corpus", str(tmp_path),
                                     "--graph", out, "--out", out]),
                       ("--users", ["ingest", "--users", "", "--items", out, "--reviews", out,
                                    "--out", out])):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2, argv
        assert f"argument {flag}: an empty path names no file" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


# The path flags each command requires, by name; none is opened before the flags are checked.
REQUIRED_PATHS = {
    "ingest": ["--users", "--items", "--reviews", "--out"],
    "build-graph": ["--corpus", "--out"],
    "verbalize": ["--corpus", "--graph", "--out"],
    "make-instances": ["--corpus", "--out"],
    "run-teacher": ["--corpus", "--graph", "--cache", "--instances", "--out"],
    "filter": ["--sessions", "--out"],
    "export-sft": ["--kept", "--out"],
    "score-rewards": ["--trajectories", "--out"],
    "bucket-rl": ["--rollouts", "--out"],
    "evaluate": ["--sessions", "--instances", "--out"],
}
SENDING = {"verbalize", "run-teacher"}
SEEDED = {"make-instances", "bucket-rl"}


@pytest.mark.parametrize("flag, value, command, takes", [
    pytest.param(flag, value, command, command in readers, id=f"{command}{flag}")
    for flag, value, readers in (("--config", "gateway.ini", SENDING), ("--seed", "9", SEEDED))
    for command in REQUIRED_PATHS
])
def test_a_command_takes_config_and_seed_only_where_it_reads_them(tmp_path, capsys, flag, value,
                                                                  command, takes):
    # only the two commands that send read the gateway config, and only two draw at random
    argv = [command, *(part for name in REQUIRED_PATHS[command]
                       for part in (name, str(tmp_path / name.lstrip("-"))))]
    build_parser().parse_args(argv)  # the command's own flags parse
    if takes:
        assert getattr(build_parser().parse_args([*argv, flag, value]), flag.lstrip("-")) is not None
        return
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, flag, value])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_missing_input_is_a_clean_failure(tmp_path, capsys):
    code = main(["build-graph", "--corpus", str(tmp_path / "nowhere"),
                 "--out", str(tmp_path / "g.jsonl")])
    captured = capsys.readouterr()
    assert code == 1
    # one machine-parsable line on stderr
    error_lines = [l for l in captured.err.splitlines() if l.startswith("error: ")]
    assert len(error_lines) == 1
    assert ": " in error_lines[0].removeprefix("error: ")


def test_missing_path_flag_names_the_gap(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["build-graph", "--out", str(tmp_path / "g.jsonl")])
    assert excinfo.value.code == 2
    assert "the following arguments are required: --corpus" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_http_backend_requires_endpoint(pipeline, tmp_path, capsys):
    code = main(["verbalize", "--corpus", str(pipeline["corpus"]),
                 "--graph", str(pipeline["graph"]), "--out", str(tmp_path / "c.jsonl")])
    captured = capsys.readouterr()
    assert code == 1
    assert "endpoint" in captured.err


@pytest.mark.parametrize("argv, error", [
    (["run-teacher", "--backend", "http", "--fail-reflection"], "--fail-reflection requires --backend mock"),
    (["verbalize", "--backend", "http"], "http backend needs an endpoint"),
], ids=["run-teacher-fail-reflection", "verbalize-endpoint"])
def test_backend_flags_are_checked_before_any_load(pipeline, tmp_path, capsys, caplog, argv, error):
    inputs = ["--corpus", str(pipeline["corpus"]), "--graph", str(pipeline["graph"])]
    if argv[0] == "run-teacher":
        inputs += ["--cache", str(pipeline["cache"]), "--instances", str(pipeline["instances"])]
    with caplog.at_level(logging.INFO, logger="recteacher"):
        code = main([*argv, *inputs, "--out", str(tmp_path / "out.jsonl")])
    error_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error: ")]
    assert code == 1
    assert len(error_lines) == 1
    assert error_lines[0].startswith(f"error: PipelineError: {error}")
    assert [r.getMessage() for r in caplog.records if r.getMessage().startswith("loaded ")] == []
    assert os.listdir(tmp_path) == []


def test_ingest_names_a_line_that_is_not_utf8(toy_files, tmp_path, capsys):
    items = tmp_path / "items.jsonl"
    lines = toy_files["items"].read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b'"title": "', b'"title": "\xff', 1)
    items.write_bytes(b"".join(lines))
    code = main(["ingest", "--users", str(toy_files["users"]), "--items", str(items),
                 "--reviews", str(toy_files["reviews"]), "--out", str(tmp_path / "corpus")])
    error_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error: ")]
    assert code == 1
    assert len(error_lines) == 1
    assert error_lines[0].startswith(f"error: MalformedRecord: {items}:3: invalid UTF-8: ")


def test_a_lone_surrogate_fails_ingest_and_leaves_the_corpus_as_it_was(toy_files, tmp_path, capsys):
    out = tmp_path / "corpus"
    ingest = ["ingest", "--users", str(toy_files["users"]), "--items", str(toy_files["items"]),
              "--out", str(out)]
    assert main([*ingest, "--reviews", str(toy_files["reviews"])]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    reviews = tmp_path / "reviews.jsonl"
    lines = toy_files["reviews"].read_text(encoding="utf-8").splitlines(keepends=True)
    lines.append(json.dumps({"user_id": "u001", "item_id": "i001", "timestamp": 1,
                             "review_text": "bad \ud800 text"}) + "\n")
    reviews.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert main([*ingest, "--reviews", str(reviews)]) == 1
    error_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error: ")]
    assert error_lines == [f"error: MalformedRecord: {reviews}:{len(lines)}: "
                           "lone surrogate '\\ud800', which UTF-8 cannot encode"]
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


_USERS = [{"user_id": "u1"}, {"user_id": "u2"}]
_ITEMS = [{"item_id": "i1", "title": "One"}]
_REVIEWS = [{"user_id": "u1", "item_id": "i1", "timestamp": 1}]


@pytest.mark.parametrize("file, records, line, reason", [
    ("users", [*_USERS, {"user_id": "u 3"}], 3, "user_id 'u 3' contains a comma or whitespace"),
    ("reviews", [*_REVIEWS, {"user_id": "u2", "item_id": "i1", "timestamp": "2"}], 2,
     "timestamp must be an integer"),
    ("items", [*_ITEMS, {"item_id": "i1", "title": "Again"}], 2, "duplicate item_id 'i1'"),
    ("reviews", [*_REVIEWS, {"user_id": "ux", "item_id": "i1", "timestamp": 2}], 2,
     "unknown user 'ux'"),
    ("reviews", [*_REVIEWS, {"user_id": "u2", "item_id": "ix", "timestamp": 2}], 2,
     "unknown item 'ix'"),
    ("items", [*_ITEMS, {"item_id": "i2", "title": ""}], 2, "title must not be empty"),
], ids=["bad-id", "bad-timestamp", "repeated-id", "unknown-user", "unknown-item", "empty-title"])
def test_a_bad_corpus_line_is_one_malformed_record_line(tmp_path, capsys, file, records, line,
                                                        reason):
    paths = {}
    for name, default in (("users", _USERS), ("items", _ITEMS), ("reviews", _REVIEWS)):
        paths[name] = tmp_path / f"{name}.jsonl"
        paths[name].write_text("".join(json.dumps(r) + "\n" for r in
                                       (records if name == file else default)), encoding="utf-8")
    out = tmp_path / "corpus"
    code = main(["ingest", "--users", str(paths["users"]), "--items", str(paths["items"]),
                 "--reviews", str(paths["reviews"]), "--out", str(out)])
    error_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error: ")]
    assert code == 1
    assert error_lines == [f"error: MalformedRecord: {paths[file]}:{line}: {reason}"]
    assert not out.exists()


def test_ingest_reports_counts(toy_files, tmp_path, capsys):
    code = main(["ingest", "--users", str(toy_files["users"]), "--items", str(toy_files["items"]),
                 "--reviews", str(toy_files["reviews"]), "--out", str(tmp_path / "corpus")])
    captured = capsys.readouterr()
    assert code == 0
    assert "ingested 30 users, 50 items, 442 interactions" in captured.out


def test_each_command_logs_what_it_loaded(pipeline, tmp_path, caplog):
    corpus, graph, cache = (str(pipeline[name]) for name in ("corpus", "graph", "cache"))
    commands = {
        "build-graph": ["build-graph", "--corpus", corpus, "--out", str(tmp_path / "graph.jsonl")],
        "verbalize": ["verbalize", "--backend", "mock", "--corpus", corpus, "--graph", graph,
                      "--out", str(tmp_path / "cache.jsonl")],
        "run-teacher": ["run-teacher", "--backend", "mock", "--corpus", corpus, "--graph", graph,
                        "--cache", cache, "--instances", str(pipeline["instances"]),
                        "--out", str(tmp_path / "sessions.jsonl")],
    }
    loaded = {}
    for name, argv in commands.items():
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="recteacher"):
            assert main(argv) == 0, argv
        loaded[name] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("loaded ")]
    assert loaded["build-graph"] == ["loaded corpus: 30 users, 50 items, 442 interactions"]
    assert loaded["verbalize"] == ["loaded catalogue: 30 users, 50 items"]
    entries = len(records_of(pipeline["cache"]))
    assert loaded["run-teacher"] == ["loaded catalogue: 30 users, 50 items",
                                     f"loaded evidence cache: {entries} entries from {cache}"]


def test_parallel_flag_validation(toy_files, tmp_path, capsys):
    code = main(["ingest", "--users", str(toy_files["users"]), "--items", str(toy_files["items"]),
                 "--reviews", str(toy_files["reviews"]), "--out", str(tmp_path / "corpus"),
                 "--parallel", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert "--parallel must be >= 1" in captured.err


def test_make_instances_rejects_a_limit_below_one(pipeline, tmp_path, capsys):
    out = tmp_path / "instances.jsonl"
    code = main(["make-instances", "--corpus", str(pipeline["corpus"]),
                 "--limit", "0", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert "error: PipelineError: --limit must be >= 1" in captured.err
    assert not out.exists()


def test_bucket_rl_rejects_a_negative_target(tmp_path, capsys):
    rollouts = tmp_path / "rollouts.jsonl"
    rollouts.write_text(json.dumps({"id": "r1", "success_count": 3}) + "\n", encoding="utf-8")
    code = main(["bucket-rl", "--rollouts", str(rollouts), "--target", "-1",
                 "--out", str(tmp_path / "rl.jsonl")])
    captured = capsys.readouterr()
    assert code == 1
    assert "error: PipelineError: --target must be >= 0" in captured.err


@pytest.mark.parametrize("command", ["run-teacher", "evaluate", "score-rewards"])
def test_a_repeated_instance_id_is_an_error(pipeline, tmp_path, capsys, command):
    first, *rest = records_of(pipeline["instances"])
    # same id, another ground truth: keeping either record silently would skew the result
    other = dict(first, ground_truth=next(c for c in first["candidates"]
                                          if c != first["ground_truth"]))
    instances = tmp_path / "instances.jsonl"
    instances.write_text("".join(json.dumps(r) + "\n" for r in [first, *rest, other]),
                         encoding="utf-8")
    out = tmp_path / "out.jsonl"
    argv = {
        "run-teacher": ["run-teacher", "--corpus", str(pipeline["corpus"]),
                        "--graph", str(pipeline["graph"]), "--cache", str(pipeline["cache"]),
                        "--backend", "mock", "--out", str(out)],
        "evaluate": ["evaluate", "--sessions", str(pipeline["sessions"]), "--out", str(out)],
        "score-rewards": ["score-rewards", "--trajectories", str(pipeline["sessions"]),
                          "--out", str(out)],
    }[command]
    code = main([*argv, "--instances", str(instances)])
    captured = capsys.readouterr()
    assert code == 1
    assert (f"error: MalformedRecord: {instances}:{len(rest) + 2}: "
            f"duplicate instance id {first['id']!r}") in captured.err
    assert not out.exists()


def test_bucket_rl_rejects_a_repeated_rollout_id(tmp_path, capsys):
    rollouts = tmp_path / "rollouts.jsonl"
    rows = [{"id": "r1", "success_count": 3}, {"id": "r1", "success_count": 5}]
    rollouts.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    code = main(["bucket-rl", "--rollouts", str(rollouts), "--target", "0",
                 "--out", str(tmp_path / "rl.jsonl")])
    captured = capsys.readouterr()
    assert code == 1
    assert f"error: MalformedRecord: {rollouts}:2: duplicate rollout id 'r1'" in captured.err


def test_a_rollout_id_must_be_a_string(tmp_path, capsys):
    rollouts = tmp_path / "rollouts.jsonl"
    rows = [{"id": 5, "success_count": 3}, {"id": "5", "success_count": 5}]
    rollouts.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    code = main(["bucket-rl", "--rollouts", str(rollouts), "--target", "0",
                 "--out", str(tmp_path / "rl.jsonl")])
    error_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error: ")]
    assert code == 1
    assert error_lines == [f"error: MalformedRecord: {rollouts}:1: id must be a string"]
    assert os.listdir(tmp_path) == ["rollouts.jsonl"]


def test_make_instances_respects_limit_and_seed(pipeline, tmp_path, capsys):
    out = tmp_path / "instances.jsonl"
    assert main(["make-instances", "--corpus", str(pipeline["corpus"]),
                 "--limit", "3", "--out", str(out), "--seed", "9"]) == 0
    capsys.readouterr()
    records = records_of(out)
    assert len(records) == 3
    assert all(record["seed"] == 9 for record in records)
    assert all(record["scenario"] == "Classic" for record in records)
    assert all(len(record["candidates"]) == 20 for record in records)
    # ids are scenario-qualified and users ordered
    assert [r["id"] for r in records] == [f"Classic-{r['user']}" for r in records]
    assert [r["user"] for r in records] == sorted(r["user"] for r in records)

    baseline = records_of(pipeline["instances"])[:3]
    assert [r["candidates"] for r in records] != [r["candidates"] for r in baseline]


def test_make_instances_scenario_filter(pipeline, tmp_path, capsys):
    out = tmp_path / "cold.jsonl"
    assert main(["make-instances", "--corpus", str(pipeline["corpus"]),
                 "--scenario", "ColdStartUser", "--out", str(out)]) == 0
    capsys.readouterr()
    records = records_of(out)
    assert records
    assert all(record["scenario"] == "ColdStartUser" for record in records)
    assert all(len(record["history"]) < 5 for record in records)


def error_lines(capsys):
    return [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]


@pytest.fixture
def heavy_user_corpus(tmp_path):
    """4 users and 25 items: u0 read 12 items, leaving 13 untouched for 19 negatives; u1-u3 read 3 each."""
    reads = {"u0": range(12), "u1": range(12, 15), "u2": range(15, 18), "u3": range(18, 21)}
    files = {
        "users": [{"user_id": user} for user in reads],
        "items": [{"item_id": f"i{n:02d}", "title": f"Title {n}"} for n in range(25)],
        "reviews": [{"user_id": user, "item_id": f"i{n:02d}", "timestamp": 86400 * (1 + day)}
                    for user, items in reads.items() for day, n in enumerate(items)],
    }
    for name, records in files.items():
        (tmp_path / f"{name}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records),
                                                encoding="utf-8")
    corpus = tmp_path / "corpus"
    assert main(["ingest", *(f"--{name}={tmp_path / name}.jsonl" for name in files),
                 "--out", str(corpus)]) == 0
    return corpus


def test_make_instances_skips_a_user_with_too_few_untouched_items(heavy_user_corpus, tmp_path, capsys):
    out = tmp_path / "instances.jsonl"
    assert main(["make-instances", "--corpus", str(heavy_user_corpus), "--out", str(out)]) == 0
    assert f"instances: 3 (Classic) -> {out}" in capsys.readouterr().out
    assert [record["user"] for record in records_of(out)] == ["u1", "u2", "u3"]


def test_make_instances_with_no_matching_user_is_one_error_line(heavy_user_corpus, tmp_path, capsys):
    # only u0's history is long enough for EvoLong, and u0 has too few untouched items
    out = tmp_path / "instances.jsonl"
    assert main(["make-instances", "--corpus", str(heavy_user_corpus), "--scenario", "EvoLong",
                 "--out", str(out)]) == 1
    assert error_lines(capsys) == ["error: InsufficientInput: no users match scenario 'EvoLong'"]
    assert not out.exists()


def test_a_directory_without_jsonl_files_is_one_error_line(tmp_path, capsys):
    shards = tmp_path / "shards"
    shards.mkdir()
    (shards / "notes.txt").write_text("not a shard\n", encoding="utf-8")
    out = tmp_path / "kept.jsonl"
    assert main(["filter", "--sessions", str(shards), "--out", str(out)]) == 1
    assert error_lines(capsys) == [f"error: InsufficientInput: no .jsonl session files under {shards}"]
    assert not out.exists()


def test_an_empty_instances_file_fails_run_teacher_before_any_send(pipeline, tmp_path, capsys,
                                                                   monkeypatch):
    steer_oracle(monkeypatch)
    instances, out = tmp_path / "instances.jsonl", tmp_path / "sessions.jsonl"
    instances.write_text("\n", encoding="utf-8")
    assert main(["run-teacher", "--backend", "mock", "--corpus", str(pipeline["corpus"]),
                 "--graph", str(pipeline["graph"]), "--cache", str(pipeline["cache"]),
                 "--instances", str(instances), "--out", str(out)]) == 1
    assert error_lines(capsys) == [f"error: InsufficientInput: no instances in {instances}"]
    assert not out.exists()


def test_verbalize_reports_and_only_missing(pipeline, capsys):
    # the cache is fully warmed by the fixture; --only-missing adds nothing
    assert main(["verbalize", "--corpus", str(pipeline["corpus"]),
                 "--graph", str(pipeline["graph"]), "--out", str(pipeline["cache"]),
                 "--backend", "mock", "--only-missing"]) == 0
    captured = capsys.readouterr()
    assert "(0 new, 0 failed)" in captured.out
    # 50 items + 30 users
    assert "cache entries: 80" in captured.out


def test_failed_verbalize_rebuild_keeps_the_old_cache(pipeline, tmp_path, capsys, monkeypatch):
    out = tmp_path / "cache.jsonl"
    earlier = pipeline["cache"].read_bytes()
    out.write_bytes(earlier)
    steer_oracle(monkeypatch, lambda origin: "Grouped, but with no envelope.")
    code = main(["verbalize", "--corpus", str(pipeline["corpus"]),
                 "--graph", str(pipeline["graph"]), "--out", str(out),
                 "--backend", "mock", "--parallel", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "keys failed to verbalize" in captured.err
    assert "ReplyParseError" in captured.err
    assert out.read_bytes() == earlier
    assert os.listdir(tmp_path) == ["cache.jsonl"]


def test_only_missing_creates_the_cache_and_keeps_what_landed_before_a_failure(pipeline, tmp_path, capsys,
                                                                                monkeypatch):
    answer = "<Answer>scripted evidence</Answer>"
    failing = ("UserCF", "u001")
    steer_oracle(monkeypatch, lambda origin: "Grouped, but with no envelope."
                 if (origin.role, origin.subject) == failing else answer)
    out = tmp_path / "new" / "new.jsonl"  # neither the file nor its directory exists yet

    def verbalize(*extra):
        return main(["verbalize", "--corpus", str(pipeline["corpus"]), "--graph", str(pipeline["graph"]),
                     "--backend", "mock", "--parallel", "1", *extra])

    assert verbalize("--only-missing", "--out", str(out)) == 1
    assert f"cache entries: 79 (79 new, 1 failed) -> {out}" in capsys.readouterr().out
    assert len(records_of(out)) == 79
    failing = None  # the failed key verbalizes now: one send fills the gap
    assert verbalize("--only-missing", "--out", str(out)) == 0
    assert "(1 new, 0 failed)" in capsys.readouterr().out
    assert verbalize("--out", str(tmp_path / "clean.jsonl")) == 0
    capsys.readouterr()
    lines = [path.read_text(encoding="utf-8").splitlines() for path in (out, tmp_path / "clean.jsonl")]
    assert len(lines[0]) == 80 and set(lines[0]) == set(lines[1])


def test_a_cache_that_repeats_a_key_fails_run_teacher_before_any_send(pipeline, tmp_path, capsys,
                                                                      monkeypatch):
    cache = tmp_path / "evidence.jsonl"
    lines = pipeline["cache"].read_text(encoding="utf-8").splitlines()
    cache.write_text("\n".join([*lines, lines[0]]) + "\n", encoding="utf-8")
    steer_oracle(monkeypatch)
    code = main(["run-teacher", "--corpus", str(pipeline["corpus"]), "--graph", str(pipeline["graph"]),
                 "--cache", str(cache), "--instances", str(pipeline["instances"]),
                 "--out", str(tmp_path / "sessions.jsonl"), "--backend", "mock"])
    error_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error: ")]
    assert code == 1
    (error,) = error_lines
    assert error.startswith(f"error: MalformedRecord: {cache}:{len(lines) + 1}: duplicate evidence key ")
    assert not (tmp_path / "sessions.jsonl").exists()


def test_run_teacher_rerun_is_byte_identical(pipeline, tmp_path, capsys):
    outs = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for out in outs:
        assert main(["run-teacher", "--corpus", str(pipeline["corpus"]),
                     "--graph", str(pipeline["graph"]), "--cache", str(pipeline["cache"]),
                     "--instances", str(pipeline["instances"]), "--out", str(out),
                     "--backend", "mock"]) == 0
    capsys.readouterr()
    assert filecmp.cmp(outs[0], outs[1], shallow=False)
    assert filecmp.cmp(outs[0], pipeline["sessions"], shallow=False)


def test_on_demand_run_teacher_is_the_same_at_any_parallelism(pipeline, tmp_path, capsys):
    for workers in ("1", "4"):
        run = tmp_path / f"parallel-{workers}"
        run.mkdir()
        assert main(["run-teacher", "--corpus", str(pipeline["corpus"]),
                     "--graph", str(pipeline["graph"]), "--cache", str(run / "cache.jsonl"),
                     "--instances", str(pipeline["instances"]),
                     "--out", str(run / "sessions.jsonl"), "--backend", "mock",
                     "--parallel", workers]) == 0
    capsys.readouterr()
    serial, parallel = tmp_path / "parallel-1", tmp_path / "parallel-4"
    for name in ("sessions.jsonl", "cache.jsonl"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes(), name
    assert filecmp.cmp(parallel / "sessions.jsonl", pipeline["sessions"], shallow=False)

    # one line per session user, in instance order, as offline verbalize wrote it
    offline = {}
    for line in pipeline["cache"].read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        offline[(record["tool"], record["anchor"])] = line
    users = [record["user"] for record in records_of(pipeline["instances"])]
    lines = (parallel / "cache.jsonl").read_text(encoding="utf-8").splitlines()
    assert lines == [offline[("UserCF", user)] for user in users]


def test_a_failed_session_cancels_the_sessions_not_yet_started(pipeline, tmp_path, capsys,
                                                               monkeypatch):
    users = [record["user"] for record in records_of(pipeline["instances"])]
    second_started = threading.Event()

    def fails_the_first_plan(origin):
        """Fails the first session's plan once the second session is running."""
        if origin.subject == users[1]:
            second_started.set()
        if origin.role is Phase.PLAN and origin.subject == users[0]:
            assert second_started.wait(timeout=10)
            return GatewayError("auth", "injected plan failure")  # not retried
        time.sleep(0.001)  # the running sessions outlast the cancel
        return None

    sent = steer_oracle(monkeypatch, fails_the_first_plan)
    # no UserCF evidence, so the running sessions fill some
    cache = tmp_path / "cache.jsonl"
    cache.write_text("".join(line + "\n" for line in
                             pipeline["cache"].read_text(encoding="utf-8").splitlines()
                             if json.loads(line)["tool"] == "ItemCF"), encoding="utf-8")
    out = tmp_path / "sessions.jsonl"
    out.write_bytes(pipeline["sessions"].read_bytes())
    before = {path: path.read_bytes() for path in (cache, out)}
    code = main(["run-teacher", "--corpus", str(pipeline["corpus"]),
                 "--graph", str(pipeline["graph"]), "--cache", str(cache),
                 "--instances", str(pipeline["instances"]), "--out", str(out),
                 "--backend", "mock", "--parallel", "2"])
    captured = capsys.readouterr()
    assert code == 1
    error_lines = [line for line in captured.err.splitlines() if line.startswith("error: ")]
    assert len(error_lines) == 1
    assert error_lines[0].startswith("error: SessionError: session aborted in phase 'plan'")
    assert "injected plan failure" in error_lines[0]
    assert {path: path.read_bytes() for path in (cache, out)} == before
    assert sorted(os.listdir(tmp_path)) == ["cache.jsonl", "sessions.jsonl"]  # no temp left
    # the first two sessions were running; the worker freed by the failure may
    # take the third before the rest are cancelled, and those send nothing
    subjects = {origin.subject for origin in sent}
    assert len(users) == 6 and {users[0], users[1]} <= subjects
    assert not subjects & set(users[3:])


def test_run_teacher_writes_in_instance_order_when_sessions_finish_out_of_order(
        pipeline, tmp_path, capsys, monkeypatch):
    import recteacher.cli as cli

    users = [record["user"] for record in records_of(pipeline["instances"])]
    second_finished = threading.Event()
    finished: list[str] = []
    run_teacher = cli.run_teacher

    def recording_run_teacher(context, *args):
        log = run_teacher(context, *args)
        finished.append(context.user)
        if context.user == users[1]:
            second_finished.set()
        return log

    def holds_the_first_plan(origin):
        """Answers the first session's plan only once the second session has finished."""
        if origin.role is Phase.PLAN and origin.subject == users[0]:
            assert second_finished.wait(timeout=10)

    monkeypatch.setattr(cli, "run_teacher", recording_run_teacher)
    steer_oracle(monkeypatch, holds_the_first_plan)
    out = tmp_path / "sessions.jsonl"
    assert main(["run-teacher", "--corpus", str(pipeline["corpus"]),
                 "--graph", str(pipeline["graph"]), "--cache", str(pipeline["cache"]),
                 "--instances", str(pipeline["instances"]), "--out", str(out),
                 "--backend", "mock", "--parallel", "2"]) == 0
    capsys.readouterr()
    assert finished.index(users[1]) < finished.index(users[0])
    assert sorted(finished) == sorted(users)
    assert filecmp.cmp(out, pipeline["sessions"], shallow=False)


def test_run_teacher_raises_the_first_failure_in_instance_order(pipeline, tmp_path, capsys,
                                                                 monkeypatch):
    users = [record["user"] for record in records_of(pipeline["instances"])]
    second_failed = threading.Event()

    def fails_two_plans(origin):
        """Fails the second session's plan, then the first session's."""
        if origin.role is Phase.PLAN and origin.subject == users[1]:
            second_failed.set()
            return GatewayError("auth", "second plan failure")  # not retried
        if origin.role is Phase.PLAN and origin.subject == users[0]:
            assert second_failed.wait(timeout=10)
            time.sleep(0.05)  # the second session fails first in time
            return GatewayError("auth", "first plan failure")
        return None

    steer_oracle(monkeypatch, fails_two_plans)
    out = tmp_path / "sessions.jsonl"
    code = main(["run-teacher", "--corpus", str(pipeline["corpus"]),
                 "--graph", str(pipeline["graph"]), "--cache", str(pipeline["cache"]),
                 "--instances", str(pipeline["instances"]), "--out", str(out),
                 "--backend", "mock", "--parallel", "2"])
    captured = capsys.readouterr()
    assert code == 1
    error_lines = [line for line in captured.err.splitlines() if line.startswith("error: ")]
    assert len(error_lines) == 1
    assert error_lines[0].startswith("error: SessionError: session aborted in phase 'plan'")
    assert "first plan failure" in error_lines[0]
    assert ": GatewayError: auth: first plan failure" in error_lines[0]  # the cause's class
    assert os.listdir(tmp_path) == []  # no output, no temp


@pytest.mark.parametrize("position", [0, 3])
def test_a_bad_instance_anywhere_fails_before_any_session(pipeline, tmp_path, capsys, monkeypatch, position):
    records = records_of(pipeline["instances"])
    broken = records[position]
    records[position] = {**broken, "user": None}
    instances = tmp_path / "instances.jsonl"
    instances.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    steer_oracle(monkeypatch)
    assert main(["run-teacher", "--corpus", str(pipeline["corpus"]),
                 "--graph", str(pipeline["graph"]), "--cache", str(pipeline["cache"]),
                 "--instances", str(instances), "--out", str(tmp_path / "sessions.jsonl"),
                 "--backend", "mock", "--parallel", "2"]) == 1
    captured = capsys.readouterr()
    assert (f"error: MalformedRecord: {instances}:{position + 1}: "
            "missing or invalid user") in captured.err
    assert os.listdir(tmp_path) == ["instances.jsonl"]  # no output, no temp


def test_a_bad_instance_file_fails_before_any_session(pipeline, tmp_path, capsys, monkeypatch):
    *good, last = records_of(pipeline["instances"])
    first, *rest = last["history"]
    other = next(c for c in last["candidates"] if c != last["ground_truth"])

    def with_candidate(replacement):
        return [replacement if c == other else c for c in last["candidates"]]

    # history entries are checked like review-file records, and ids like corpus ids
    broken_records = [
        {key: value for key, value in last.items() if key != "candidates"},
        {**last, "history": [{**first, "rating": "five"}, *rest]},
        {**last, "history": [1, *rest]},
        {**last, "history": [{**first, "timestamp": True}, *rest]},
        {**last, "history": [{**first, "timestamp": TIMESTAMP_MAX + 1}, *rest]},
        {**last, "history": [{**first, "timestamp": 10**20}, *rest]},
        {**last, "candidates": with_candidate(None)},
        {**last, "candidates": with_candidate("a,b")},
        {**last, "user": None},
    ]
    instances = tmp_path / "instances.jsonl"
    steer_oracle(monkeypatch)
    out = tmp_path / "sessions.jsonl"
    for broken in broken_records:
        instances.write_text("".join(json.dumps(r) + "\n" for r in [*good, broken]), encoding="utf-8")
        assert main(["run-teacher", "--corpus", str(pipeline["corpus"]),
                     "--graph", str(pipeline["graph"]), "--cache", str(pipeline["cache"]),
                     "--instances", str(instances), "--out", str(out),
                     "--backend", "mock", "--parallel", "2"]) == 1
        captured = capsys.readouterr()
        assert f"error: MalformedRecord: {instances}:{len(good) + 1}: " in captured.err
        assert os.listdir(tmp_path) == ["instances.jsonl"]  # no output, no temp


@pytest.mark.parametrize("field, reason", [
    ("user", "unknown user 'ux'"),
    ("history", "unknown item 'yyy'"),
    ("candidates", "unknown item 'zzz'"),
])
def test_an_instance_naming_an_id_the_catalogue_lacks_fails_before_any_session(
        pipeline, tmp_path, capsys, monkeypatch, field, reason):
    *good, last = records_of(pipeline["instances"])
    first, *rest = last["history"]
    other = next(c for c in last["candidates"] if c != last["ground_truth"])
    last[field] = {
        "user": "ux",
        "history": [first, {**rest[0], "item_id": "yyy"}, *rest[1:]],
        "candidates": ["zzz" if c == other else c for c in last["candidates"]],
    }[field]
    if field == "user":  # an instance's history is its own user's
        last["history"] = [{**entry, "user_id": "ux"} for entry in last["history"]]
    instances = tmp_path / "instances.jsonl"
    instances.write_text("".join(json.dumps(r) + "\n" for r in [*good, last]), encoding="utf-8")
    steer_oracle(monkeypatch)
    code = main(["run-teacher", "--corpus", str(pipeline["corpus"]),
                 "--graph", str(pipeline["graph"]), "--cache", str(pipeline["cache"]),
                 "--instances", str(instances), "--out", str(tmp_path / "sessions.jsonl"),
                 "--backend", "mock", "--parallel", "2"])
    error_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error: ")]
    assert code == 1
    assert error_lines == [f"error: MalformedRecord: {instances}:{len(good) + 1}: {reason}"]
    assert os.listdir(tmp_path) == ["instances.jsonl"]  # no output, no temp


# Each command that reads `{path}` as its instances; no gateway call is expected.
_INSTANCE_READERS = pytest.mark.parametrize("command", [
    ["run-teacher", "--corpus", "{corpus}", "--graph", "{graph}", "--cache", "{cache}",
     "--instances", "{path}", "--out", "{out}", "--backend", "mock"],
    ["evaluate", "--sessions", "{sessions}", "--instances", "{path}", "--out", "{out}"],
    ["score-rewards", "--trajectories", "{sessions}", "--instances", "{path}", "--out", "{out}"],
], ids=["run-teacher", "evaluate", "score-rewards"])


def instance_error_lines(pipeline, tmp_path, capsys, monkeypatch, command, records):
    """The `error: ` lines of `command` run on `records` as its instances; it must exit 1, writing nothing."""
    path = tmp_path / "instances.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    steer_oracle(monkeypatch)
    names = {name: str(p) for name, p in pipeline.items()}
    code = main([arg.format(**names, path=path, out=tmp_path / "out") for arg in command])
    assert code == 1
    assert os.listdir(tmp_path) == ["instances.jsonl"]  # no output, no temp
    return [l for l in capsys.readouterr().err.splitlines() if l.startswith("error: ")]


@_INSTANCE_READERS
def test_an_instance_history_naming_another_user_fails_before_any_session(pipeline, tmp_path, capsys,
                                                                           monkeypatch, command):
    records = records_of(pipeline["instances"])
    records[0]["history"] = [{**entry, "user_id": "ux"} for entry in records[0]["history"]]
    path = tmp_path / "instances.jsonl"
    assert instance_error_lines(pipeline, tmp_path, capsys, monkeypatch, command, records) == [
        f"error: MalformedRecord: {path}:1: history names user 'ux', "
        f"not the instance's {records[0]['user']!r}"]


@_INSTANCE_READERS
def test_an_instance_whose_history_length_contradicts_its_scenario_fails(pipeline, tmp_path, capsys,
                                                                         monkeypatch, command):
    records = records_of(pipeline["instances"])
    length = len(records[0]["history"])
    assert length >= COLD_USER_MAX_HISTORY
    records[0]["scenario"] = "ColdStartUser"
    path = tmp_path / "instances.jsonl"
    assert instance_error_lines(pipeline, tmp_path, capsys, monkeypatch, command, records) == [
        f"error: MalformedRecord: {path}:1: "
        f"a ColdStartUser instance cannot have {length} history entries"]


# Each record kind a command reads: the file it comes from, and a command reading `{path}` as it.
_READERS = {
    "review": ("reviews", ["ingest", "--users", "{users}", "--items", "{items}",
                           "--reviews", "{path}", "--out", "{out}"]),
    "item": ("items", ["ingest", "--users", "{users}", "--items", "{path}",
                       "--reviews", "{reviews}", "--out", "{out}"]),
    "instance": ("instances", ["evaluate", "--sessions", "{sessions}", "--instances", "{path}",
                               "--out", "{out}"]),
    "session": ("sessions", ["filter", "--sessions", "{path}", "--out", "{out}"]),
    "kept": ("kept", ["export-sft", "--kept", "{path}", "--out", "{out}"]),
    "rollout": ("rollouts", ["bucket-rl", "--rollouts", "{path}", "--target", "0", "--out", "{out}"]),
    "graph line": ("graph", ["verbalize", "--corpus", "{corpus}", "--graph", "{path}",
                             "--out", "{out}", "--backend", "mock"]),
    "cache line": ("cache", ["verbalize", "--only-missing", "--corpus", "{corpus}", "--graph", "{graph}",
                             "--out", "{path}", "--backend", "mock"]),
}
_READERS["history entry"] = _READERS["instance"]  # the first history entry of the last instance
_ABSENT = object()


def read_as(kind, pipeline, toy_files, tmp_path, change=None):
    """Exit code of the command reading a copy of `kind`'s good file, its last record changed by `change`.

    Returns (code, path of the copy, line of its last record).
    """
    rollouts = tmp_path / "good-rollouts.jsonl"
    rollouts.write_text("".join(json.dumps({"id": f"r{n}", "success_count": n}) + "\n" for n in range(9)),
                        encoding="utf-8")
    files = {**toy_files, **pipeline, "rollouts": rollouts}
    source, argv = _READERS[kind]
    records = records_of(files[source])
    if change is not None:
        change(records[-1]["history"][0] if kind == "history entry" else records[-1])
    path = tmp_path / f"{source}.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    names = {name: str(p) for name, p in files.items()}
    code = main([arg.format(**names, path=path, out=tmp_path / "out") for arg in argv])
    return code, path, len(records)


@pytest.mark.parametrize("kind", list(_READERS))
def test_a_good_file_of_each_record_kind_loads(pipeline, toy_files, tmp_path, capsys, kind):
    code, _path, _line = read_as(kind, pipeline, toy_files, tmp_path)
    assert code == 0, capsys.readouterr().err


_FIELD_CASES = [
    ("review", "timestamp", _ABSENT, "missing 'timestamp'"),
    ("review", "timestamp", True, "timestamp must be an integer"),
    ("item", "title", _ABSENT, "missing 'title'"),
    ("item", "title", None, "title must be a string"),
    ("instance", "candidates", _ABSENT, "missing 'candidates'"),
    ("instance", "history", None, "history must be a list"),
    ("history entry", "timestamp", _ABSENT, "missing 'timestamp'"),
    ("history entry", "timestamp", True, "timestamp must be an integer"),
    ("session", "prompt", _ABSENT, "missing 'prompt'"),
    ("session", "trajectory", None, "trajectory must be a string"),
    ("kept", "trajectory", _ABSENT, "missing 'trajectory'"),
    ("kept", "prompt", None, "prompt must be a string"),
    ("rollout", "success_count", _ABSENT, "missing 'success_count'"),
    ("rollout", "success_count", True, "success_count must be an integer"),
    ("rollout", "id", None, "id must be a string"),
    ("graph line", "items", _ABSENT, "missing 'items'"),
    ("graph line", "items", None, "items must be a list"),
    ("cache line", "text", _ABSENT, "missing 'text'"),
    ("cache line", "created_at", True, "created_at must be an integer"),
    ("cache line", "text", None, "text must be a string"),
    ("cache line", "neighbors", None, "neighbors must be a list"),
]


@pytest.mark.parametrize("kind, key, value, reason", _FIELD_CASES, ids=[
    f"{kind}-{key}-{'absent' if value is _ABSENT else json.dumps(value)}"
    for kind, key, value, _reason in _FIELD_CASES])
def test_every_reader_words_a_bad_field_alike(pipeline, toy_files, tmp_path, capsys, kind, key, value,
                                              reason):
    def change(record):
        if value is _ABSENT:
            del record[key]
        else:
            record[key] = value

    code, path, line = read_as(kind, pipeline, toy_files, tmp_path, change)
    error_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error: ")]
    assert code == 1
    assert error_lines == [f"error: MalformedRecord: {path}:{line}: {reason}"]


def foreign_graph(pipeline, path, anchor):
    """The pipeline graph plus one edge to `anchor`, a user or item the toy catalogue lacks."""
    user_sets = {user: set(items) for user, items in load_graph(pipeline["graph"]).user_adj.items()}
    if anchor.startswith("u"):
        user_sets[anchor] = {"i001"}
    else:
        user_sets["u001"].add(anchor)
    save_graph(InteractionGraph.from_user_sets(user_sets), path)
    return path


@pytest.mark.parametrize("anchor, kind", [("u999", "user"), ("i999", "item")])
@pytest.mark.parametrize("command", ["verbalize", "verbalize --only-missing", "run-teacher"])
def test_a_graph_naming_an_id_the_catalogue_lacks_fails_before_any_send(
        pipeline, tmp_path, capsys, monkeypatch, anchor, kind, command):
    graph = foreign_graph(pipeline, tmp_path / "graph.jsonl", anchor)
    steer_oracle(monkeypatch)
    out = tmp_path / "out.jsonl"  # an earlier output, left as it was
    out.write_bytes(pipeline["cache"].read_bytes())
    argv = [*command.split(), "--corpus", str(pipeline["corpus"]), "--graph", str(graph),
            "--out", str(out), "--backend", "mock", "--parallel", "1"]
    if command == "run-teacher":
        argv += ["--cache", str(pipeline["cache"]), "--instances", str(pipeline["instances"])]
    code = main(argv)
    error_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error: ")]
    assert code == 1
    assert error_lines == [f"error: PipelineError: graph {graph}: unknown {kind} '{anchor}'"]
    assert out.read_bytes() == pipeline["cache"].read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["graph.jsonl", "out.jsonl"]  # no temp


def test_a_history_at_the_last_second_of_year_9999_runs(pipeline, tmp_path, capsys):
    instance = records_of(pipeline["instances"])[0]
    *earlier, latest = instance["history"]
    instance["history"] = [*earlier, {**latest, "timestamp": TIMESTAMP_MAX}]
    single = tmp_path / "one.jsonl"
    single.write_text(json.dumps(instance) + "\n", encoding="utf-8")
    cache, out = tmp_path / "cache.jsonl", tmp_path / "sessions.jsonl"
    cache.write_bytes(pipeline["cache"].read_bytes())
    assert main(["run-teacher", "--corpus", str(pipeline["corpus"]),
                 "--graph", str(pipeline["graph"]), "--cache", str(cache),
                 "--instances", str(single), "--out", str(out), "--backend", "mock"]) == 0
    capsys.readouterr()
    (session,) = records_of(out)
    assert "Review time: 9999-12-31-11PM" in session["prompt"]


@pytest.mark.parametrize("graph", [True, False])
def test_itemcf_on_an_unread_catalogue_item(pipeline, toy_files, tmp_path, capsys, monkeypatch, graph):
    # ingest keeps a catalogue item nobody read, so the graph does not know it
    items = tmp_path / "items.jsonl"
    items.write_text(toy_files["items"].read_text(encoding="utf-8")
                     + json.dumps({"item_id": "unread", "title": "Unread"}) + "\n", encoding="utf-8")
    corpus = tmp_path / "corpus"
    assert main(["ingest", "--users", str(toy_files["users"]), "--items", str(items),
                 "--reviews", str(toy_files["reviews"]), "--out", str(corpus)]) == 0
    instance = records_of(pipeline["instances"])[0]
    single = tmp_path / "one.jsonl"
    single.write_text(json.dumps(instance) + "\n", encoding="utf-8")
    replies = {
        SUMMARIZER: "<SUMMARY>the early arc</SUMMARY>",
        Phase.PLAN: 'One lens is enough.\n<JSON>["User_Profile_Summary"]</JSON>',
        Phase.REFLECTION: 'Holds up.\n<JSON>{"correct": "yes"}</JSON>',
        Phase.RECOMMEND: f"Keeping the given order.\n<JSON>{json.dumps(instance['candidates'])}</JSON>",
    }
    profile = ['Who else read it?\n<tool_call>{"name": "ItemCF", "arguments": {"item_id": "unread"}}'
               "</tool_call>",
               'Nobody did.\n<JSON>["profile sketch"]</JSON>']

    def reply(origin):  # a fill would send as a verbalizer, which gets no reply
        if origin.role is Phase.USER_PROFILE:
            return profile[origin.send]
        return replies.get(origin.role) or no_send(origin)

    steer_oracle(monkeypatch, reply)
    capsys.readouterr()
    out = tmp_path / "sessions.jsonl"
    argv = ["run-teacher", "--corpus", str(corpus), "--cache", str(pipeline["cache"]),
            *(["--graph", str(pipeline["graph"])] if graph else []),
            "--instances", str(single), "--out", str(out),
            "--backend", "mock", "--parallel", "1"]
    if graph:
        assert main(argv) == 0
        (record,) = records_of(out)
        assert MISS_FALLBACK in record["trajectory"]
    else:  # no session starts, so no miss can reach a record
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "the following arguments are required: --graph" in capsys.readouterr().err
        assert not out.exists()
        assert sorted(os.listdir(tmp_path)) == ["corpus", "items.jsonl", "one.jsonl"]


def test_session_records_carry_full_structure(pipeline):
    records = records_of(pipeline["sessions"])
    assert len(records) == 6
    for record in records:
        assert record["id"].startswith("Classic-")
        phases = [p["phase"] for p in record["phases"]]
        assert phases == ["plan", "user_profile", "historical_analysis",
                          "recent_analysis", "interest_divergence", "reflection", "recommend"]
        assert record["final_ranking"][0] == record["ground_truth"]
        assert sorted(record["final_ranking"]) == sorted(record["candidates"])
        assert "<recommend>" in record["trajectory"]
        assert "# Candidate Item Information" in record["prompt"]


def test_fail_reflection_adds_exactly_one_correction(pipeline, tmp_path, capsys):
    out = tmp_path / "sessions.jsonl"
    assert main(["run-teacher", "--corpus", str(pipeline["corpus"]),
                 "--graph", str(pipeline["graph"]), "--cache", str(pipeline["cache"]),
                 "--instances", str(pipeline["instances"]), "--out", str(out),
                 "--backend", "mock", "--fail-reflection"]) == 0
    capsys.readouterr()
    for record in records_of(out):
        phases = [p["phase"] for p in record["phases"]]
        assert phases.count("correction") == 1
        assert phases.index("correction") == phases.index("reflection") + 1


@pytest.mark.parametrize("backend", [["--backend", "http"]], ids=["http"])
def test_fail_reflection_needs_the_oracle(pipeline, tmp_path, capsys, monkeypatch, backend):
    sends = []

    class RecordingBackend:
        def __init__(self, config):
            pass

        def send(self, request):
            sends.append(request)
            raise GatewayError("auth", "no send expected")

    monkeypatch.setattr("recteacher.cli.HttpBackend", RecordingBackend)
    config = tmp_path / "pipeline.ini"
    config.write_text("[pipeline]\nendpoint = http://127.0.0.1:9/v1\nretries = 0\n", encoding="utf-8")
    out = tmp_path / "sessions.jsonl"
    code = main(["run-teacher", "--config", str(config), "--corpus", str(pipeline["corpus"]),
                 "--graph", str(pipeline["graph"]), "--cache", str(pipeline["cache"]),
                 "--instances", str(pipeline["instances"]), "--out", str(out),
                 "--fail-reflection", *backend])
    error_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error: ")]
    assert code == 1
    assert error_lines == ["error: PipelineError: --fail-reflection requires --backend mock"]
    assert sends == []
    assert not out.exists()


def test_script_backend_drives_run_teacher(pipeline, tmp_path, capsys, monkeypatch):
    # one instance, one planned subtask, no tool call, a one-id ranking repaired
    instance = records_of(pipeline["instances"])[0]
    replies = {
        SUMMARIZER: "<SUMMARY>the early arc</SUMMARY>",
        Phase.PLAN: 'One lens is enough.\n<JSON>["User_Profile_Summary"]</JSON>',
        Phase.USER_PROFILE: 'Straight to the point.\n<JSON>["profile sketch"]</JSON>',
        Phase.REFLECTION: 'Holds up.\n<JSON>{"correct": "yes"}</JSON>',
        Phase.RECOMMEND: "No preference signal; keeping the given order.\n"
                         f"<JSON>{json.dumps(instance['candidates'][:1])}</JSON>",
    }
    steer_oracle(monkeypatch, lambda origin: replies.get(origin.role) or no_send(origin))
    single = tmp_path / "one.jsonl"
    single.write_text(json.dumps(instance) + "\n", encoding="utf-8")
    out = tmp_path / "sessions.jsonl"
    assert main(["run-teacher", "--corpus", str(pipeline["corpus"]),
                 "--graph", str(pipeline["graph"]), "--cache", str(pipeline["cache"]),
                 "--instances", str(single), "--out", str(out),
                 "--backend", "mock", "--parallel", "1"]) == 0
    capsys.readouterr()
    (record,) = records_of(out)
    assert [p["phase"] for p in record["phases"]] == ["plan", "user_profile", "reflection", "recommend"]
    assert record["final_ranking"] == record["candidates"]  # the rest appended in order


def test_run_teacher_failure_keeps_the_earlier_output(pipeline, tmp_path, capsys, monkeypatch):
    # two sessions at one worker; the second session's plan fails
    first, second = records_of(pipeline["instances"])[:2]
    instances = tmp_path / "two.jsonl"
    instances.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n", encoding="utf-8")
    steer_oracle(monkeypatch, lambda origin: GatewayError("auth", "injected plan failure")
                 if (origin.role, origin.subject) == (Phase.PLAN, second["user"]) else None)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "sessions.jsonl"
    earlier = pipeline["sessions"].read_bytes()
    out.write_bytes(earlier)
    assert main(["run-teacher", "--corpus", str(pipeline["corpus"]),
                 "--graph", str(pipeline["graph"]), "--cache", str(pipeline["cache"]),
                 "--instances", str(instances), "--out", str(out),
                 "--backend", "mock", "--parallel", "1"]) == 1
    captured = capsys.readouterr()
    assert "error: SessionError: session aborted in phase 'plan'" in captured.err
    assert "injected plan failure" in captured.err
    assert out.read_bytes() == earlier
    assert sorted(os.listdir(out_dir)) == ["sessions.jsonl"]


def test_abstraction_failure_is_a_one_line_session_error(pipeline, tmp_path, capsys, monkeypatch):
    # more history than one window (m=10), so the first call is a summary
    record = next(r for r in records_of(pipeline["instances"]) if len(r["history"]) > 10)
    instances = tmp_path / "one.jsonl"
    instances.write_text(json.dumps(record) + "\n", encoding="utf-8")
    steer_oracle(monkeypatch, lambda origin: GatewayError("auth", "injected summary failure"))
    code = main(["run-teacher", "--corpus", str(pipeline["corpus"]),
                 "--graph", str(pipeline["graph"]), "--cache", str(pipeline["cache"]),
                 "--instances", str(instances), "--out", str(tmp_path / "sessions.jsonl"),
                 "--backend", "mock"])
    captured = capsys.readouterr()
    assert code == 1
    error_lines = [l for l in captured.err.splitlines() if l.startswith("error: ")]
    assert len(error_lines) == 1
    assert error_lines[0].startswith("error: SessionError: session aborted in phase 'abstract'")
    assert "Traceback" not in captured.err


def test_filter_prints_kept_ratio(pipeline, capsys, tmp_path):
    out = tmp_path / "kept.jsonl"
    assert main(["filter", "--sessions", str(pipeline["sessions"]), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "kept 6 / 6" in captured.out
    kept = records_of(out)
    assert {"id", "user", "ground_truth", "prompt", "trajectory"} <= set(kept[0])


def test_filter_accepts_directory_of_shards(pipeline, tmp_path, capsys):
    shards = tmp_path / "shards"
    shards.mkdir()
    records = records_of(pipeline["sessions"])
    for index, record in enumerate(records):
        (shards / f"part-{index}.jsonl").write_text(json.dumps(record) + "\n", encoding="utf-8")
    out = tmp_path / "kept.jsonl"
    assert main(["filter", "--sessions", str(shards), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "kept 6 / 6" in captured.out


@pytest.mark.parametrize("command", ["filter", "evaluate", "score-rewards"])
def test_a_repeated_session_id_is_an_error(pipeline, tmp_path, capsys, command):
    # two copies of one shard: counting both would report n = 12 over 6 instances
    shards = tmp_path / "shards"
    shards.mkdir()
    for name in ("part-0.jsonl", "part-1.jsonl"):
        (shards / name).write_bytes(pipeline["sessions"].read_bytes())
    out = tmp_path / "out.jsonl"
    argv = {
        "filter": ["filter", "--sessions", str(shards)],
        "evaluate": ["evaluate", "--sessions", str(shards), "--instances", str(pipeline["instances"])],
        "score-rewards": ["score-rewards", "--trajectories", str(shards)],
    }[command]
    code = main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    first_id = records_of(pipeline["sessions"])[0]["id"]
    assert (f"error: MalformedRecord: {shards / 'part-1.jsonl'}:1: "
            f"duplicate session id {first_id!r}") in captured.err
    assert not out.exists()


def test_a_session_id_repeated_in_a_later_shard_names_that_shard(pipeline, tmp_path, capsys):
    records = records_of(pipeline["sessions"])
    shards = tmp_path / "shards"
    shards.mkdir()
    for name, part in (("part-0.jsonl", records[:3]), ("part-1.jsonl", [*records[3:], records[1]])):
        (shards / name).write_text("".join(json.dumps(r) + "\n" for r in part), encoding="utf-8")
    out = tmp_path / "kept.jsonl"
    assert main(["filter", "--sessions", str(shards), "--out", str(out)]) == 1
    assert (f"error: MalformedRecord: {shards / 'part-1.jsonl'}:4: "
            f"duplicate session id {records[1]['id']!r}") in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_checks_an_instance_no_session_names(pipeline, tmp_path, capsys):
    first, *rest, last = records_of(pipeline["instances"])
    instances = tmp_path / "instances.jsonl"
    instances.write_text("".join(json.dumps(r) + "\n" for r in [first, *rest, {**last, "user": None}]),
                         encoding="utf-8")
    sessions = tmp_path / "sessions.jsonl"
    sessions.write_text(json.dumps(records_of(pipeline["sessions"])[0]) + "\n", encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["evaluate", "--sessions", str(sessions), "--instances", str(instances),
                 "--out", str(out)]) == 1
    assert (f"error: MalformedRecord: {instances}:{len(rest) + 2}: "
            "missing or invalid user") in capsys.readouterr().err
    assert not out.exists()


def without(key):
    return lambda record: {k: v for k, v in record.items() if k != key}


def with_value(key, value):
    return lambda record: {**record, key: value}


ROLLOUTS = [{"id": "r1", "success_count": 3}, {"id": "r2", "success_count": 5}]


@pytest.mark.parametrize("command, flag, source, change", [
    ("run-teacher", "--instances", "instances", with_value("user", None)),
    ("evaluate", "--instances", "instances", with_value("candidates", "i1")),
    ("score-rewards", "--instances", "instances", without("history")),
    ("filter", "--sessions", "sessions", with_value("ground_truth", "a,b")),
    ("evaluate", "--sessions", "sessions", without("trajectory")),
    ("score-rewards", "--trajectories", "sessions", without("trajectory")),
    ("export-sft", "--kept", "kept", without("prompt")),
    ("bucket-rl", "--rollouts", "rollouts", with_value("success_count", 9)),
    ("run-teacher", "--graph", "graph", with_value("items", "i1")),
    ("score-rewards", "--trajectories", "sessions", with_value("id", None)),
    ("filter", "--sessions", "sessions", with_value("prompt", None)),
    ("evaluate", "--sessions", "sessions", with_value("trajectory", ["1. i1"])),
    ("filter", "--sessions", "sessions", with_value("user", 5)),
    ("filter", "--sessions", "sessions", with_value("user", None)),
], ids=["run-teacher-instances", "evaluate-instances", "score-rewards-instances", "filter-sessions",
        "evaluate-sessions", "score-rewards-sessions", "export-sft-kept", "bucket-rl-rollouts",
        "run-teacher-graph", "score-rewards-null-id", "filter-null-prompt", "evaluate-ranking-entry",
        "filter-bad-user", "filter-null-user"])
def test_every_reader_names_the_file_and_line_of_a_bad_record(pipeline, tmp_path, capsys,
                                                              command, flag, source, change):
    records = ROLLOUTS if source == "rollouts" else records_of(pipeline[source])
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in [records[0], change(records[1]),
                                                          *records[2:]]), encoding="utf-8")
    out = tmp_path / "out.jsonl"
    argv = {
        "run-teacher": ["--corpus", str(pipeline["corpus"]), "--graph", str(pipeline["graph"]),
                        "--cache", str(pipeline["cache"]), "--instances", str(pipeline["instances"]),
                        "--backend", "mock"],
        "evaluate": ["--sessions", str(pipeline["sessions"]),
                     "--instances", str(pipeline["instances"])],
        "score-rewards": ["--trajectories", str(pipeline["sessions"]),
                          "--instances", str(pipeline["instances"])],
        "filter": ["--sessions", str(pipeline["sessions"])],
        "export-sft": ["--kept", str(pipeline["kept"])],
        "bucket-rl": ["--rollouts", str(bad), "--target", "0"],
    }[command]
    # the flag given last wins, so it replaces that input with the bad file
    code = main([command, *argv, flag, str(bad), "--out", str(out)])
    error_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error: ")]
    assert code == 1
    assert len(error_lines) == 1
    assert error_lines[0].startswith(f"error: MalformedRecord: {bad}:2: ")
    assert os.listdir(tmp_path) == ["bad.jsonl"]  # no output, no temp


def test_filter_warns_about_unparsable_trajectories(pipeline, tmp_path, capsys, caplog):
    good, bad = records_of(pipeline["sessions"])[:2]
    bad["trajectory"] = bad["trajectory"].replace("</recommend>", "")
    path = tmp_path / "sessions.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in [good, bad]), encoding="utf-8")
    out = tmp_path / "kept.jsonl"
    with caplog.at_level(logging.WARNING, logger="recteacher.cli"):
        assert main(["filter", "--sessions", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == ["kept 1 / 2"]
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == ["filter dropped 1 unparsable trajectories"]


def test_filter_drops_misses(pipeline, tmp_path, capsys):
    records = records_of(pipeline["sessions"])
    miss = dict(records[0])
    miss["id"] = "miss-1"
    miss["ground_truth"] = "not-a-real-item"
    path = tmp_path / "sessions.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in [records[0], miss]), encoding="utf-8")
    out = tmp_path / "kept.jsonl"
    assert main(["filter", "--sessions", str(path), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "kept 1 / 2" in captured.out


def test_filter_refuses_a_kept_session_without_a_prompt(pipeline, tmp_path, capsys):
    records = records_of(pipeline["sessions"])
    del records[0]["prompt"]
    path = tmp_path / "sessions.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    out = tmp_path / "kept.jsonl"
    code = main(["filter", "--sessions", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert f"error: MalformedRecord: {path}:1: missing 'prompt'" in captured.err
    assert not out.exists()

def with_null_ground_truth(records, tmp_path, name):
    """`records` written to `name`, the first with a null ground truth."""
    records = [dict(record) for record in records]
    records[0]["ground_truth"] = None
    path = tmp_path / name
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


@pytest.mark.parametrize("command", ["filter", "score-rewards"])
def test_a_null_session_ground_truth_is_a_bad_record(pipeline, tmp_path, capsys, command):
    path = with_null_ground_truth(records_of(pipeline["sessions"]), tmp_path, "sessions.jsonl")
    out = tmp_path / "out.jsonl"
    flag = "--sessions" if command == "filter" else "--trajectories"
    code = main([command, flag, str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert f"error: MalformedRecord: {path}:1: missing or invalid ground_truth" in captured.err
    assert "no ground truth" not in captured.err
    assert not out.exists()


def test_a_null_instance_ground_truth_fails_score_rewards(pipeline, tmp_path, capsys):
    bare = tmp_path / "bare.jsonl"
    bare.write_text("".join(json.dumps({"id": r["id"], "trajectory": r["trajectory"]}) + "\n"
                            for r in records_of(pipeline["sessions"])), encoding="utf-8")
    instances = with_null_ground_truth(records_of(pipeline["instances"]), tmp_path,
                                       "instances.jsonl")
    out = tmp_path / "rewards.jsonl"
    code = main(["score-rewards", "--trajectories", str(bare), "--instances", str(instances),
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert f"error: MalformedRecord: {instances}:1: missing or invalid ground_truth" in captured.err
    assert not out.exists()


def test_export_sft_records(pipeline, tmp_path, capsys):
    out = tmp_path / "sft.jsonl"
    assert main(["export-sft", "--kept", str(pipeline["kept"]), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "exported 6 records" in captured.out
    records = records_of(out)
    assert len(records) == 6
    for record in records:
        assert set(record) == {"system", "user", "assistant"}
        assert "# Candidate Item Information" in record["user"]
        assert record["assistant"].rstrip().endswith("</recommend>")


def test_export_sft_rejects_duplicate_ids(pipeline, tmp_path, capsys):
    record = records_of(pipeline["kept"])[0]
    path = tmp_path / "kept.jsonl"
    path.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    code = main(["export-sft", "--kept", str(path), "--out", str(tmp_path / "sft.jsonl")])
    captured = capsys.readouterr()
    assert code == 1
    assert "duplicate session id" in captured.err


def test_score_rewards_on_kept_sessions(pipeline, tmp_path, capsys):
    out = tmp_path / "rewards.jsonl"
    assert main(["score-rewards", "--trajectories", str(pipeline["kept"]),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    for record in records_of(out):
        assert record["format_score"] == 1
        assert record["outcome_score"] == "1"
        assert record["total"] == "2"
        assert record["total_value"] == 2.0


def test_score_rewards_ground_truth_from_instances(pipeline, tmp_path, capsys):
    bare = [
        {"id": record["id"], "trajectory": record["trajectory"]}
        for record in records_of(pipeline["sessions"])
    ]
    path = tmp_path / "bare.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in bare), encoding="utf-8")
    out = tmp_path / "rewards.jsonl"
    assert main(["score-rewards", "--trajectories", str(path),
                 "--instances", str(pipeline["instances"]), "--out", str(out)]) == 0
    capsys.readouterr()
    assert all(record["total"] == "2" for record in records_of(out))

    code = main(["score-rewards", "--trajectories", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert "no ground truth" in captured.err


def test_score_rewards_refuses_a_ground_truth_its_instance_contradicts(pipeline, tmp_path, capsys):
    # evaluate scores the session against the instance's ground truth, and so must score-rewards
    records = records_of(pipeline["instances"])
    changed = records[0]
    changed["ground_truth"] = next(c for c in changed["candidates"] if c != changed["ground_truth"])
    instances = tmp_path / "instances.jsonl"
    instances.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert main(["evaluate", "--sessions", str(pipeline["sessions"]), "--instances", str(instances),
                 "--out", str(tmp_path / "report.json")]) == 0
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["overall"]["per_k"]["1"]["fraction"] == "5/6"
    capsys.readouterr()
    out = tmp_path / "rewards.jsonl"
    assert main(["score-rewards", "--trajectories", str(pipeline["sessions"]),
                 "--instances", str(instances), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: PipelineError: session {changed['id']!r} does not carry its instance's ground truth"]
    assert not out.exists()


def test_bucket_rl_quotas_line(tmp_path, capsys):
    rollouts = tmp_path / "rollouts.jsonl"
    rows = []
    for index in range(40):
        rows.append({"id": f"r{index:03d}", "success_count": index % 9})
    rollouts.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    out = tmp_path / "rl.jsonl"
    assert main(["bucket-rl", "--rollouts", str(rollouts), "--target", "10",
                 "--out", str(out)]) == 0
    captured = capsys.readouterr()
    # 40 ids cycle success 0..8: 9 excluded (five 0s, four 8s)
    assert "quotas easy/medium/hard: 3/4/3; excluded 9; selected 10" in captured.out
    records = records_of(out)
    assert [r["bucket"] for r in records] == ["Easy"] * 3 + ["Medium"] * 4 + ["Hard"] * 3


def test_bucket_rl_rejects_bad_success_count(tmp_path, capsys):
    rollouts = tmp_path / "rollouts.jsonl"
    rollouts.write_text(json.dumps({"id": "r1", "success_count": "three"}) + "\n", encoding="utf-8")
    code = main(["bucket-rl", "--rollouts", str(rollouts), "--target", "1",
                 "--out", str(tmp_path / "rl.jsonl")])
    captured = capsys.readouterr()
    assert code == 1
    assert "success_count must be an integer" in captured.err


def test_bucket_rl_insufficient_bucket(tmp_path, capsys):
    rollouts = tmp_path / "rollouts.jsonl"
    rollouts.write_text(json.dumps({"id": "r1", "success_count": 7}) + "\n", encoding="utf-8")
    code = main(["bucket-rl", "--rollouts", str(rollouts), "--target", "10",
                 "--out", str(tmp_path / "rl.jsonl")])
    captured = capsys.readouterr()
    assert code == 1
    assert "need" in captured.err and "have" in captured.err


def test_evaluate_report(pipeline, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["evaluate", "--sessions", str(pipeline["sessions"]),
                 "--instances", str(pipeline["instances"]), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "Overall" in captured.out
    assert "HR@1" in captured.out

    report = json.loads(out.read_text(encoding="utf-8"))
    overall = report["overall"]
    assert overall["n"] == 6
    # the oracle always ranks the ground truth first
    for k in ("1", "3", "5"):
        assert overall["per_k"][k] == {"fraction": "1", "value": 1.0}
    assert overall["hr_avg"] == {"fraction": "1", "value": 1.0}
    assert "Classic" in report["scenarios"]


def test_evaluate_requires_matching_instance(pipeline, tmp_path, capsys):
    orphan = dict(records_of(pipeline["sessions"])[0])
    orphan["id"] = "nobody"
    path = tmp_path / "sessions.jsonl"
    path.write_text(json.dumps(orphan) + "\n", encoding="utf-8")
    code = main(["evaluate", "--sessions", str(path),
                 "--instances", str(pipeline["instances"]), "--out", str(tmp_path / "r.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert "no matching instance" in captured.err


def test_evaluate_refuses_a_session_that_ranks_other_candidates(pipeline, tmp_path, capsys):
    # the same users drawn with another seed: every id matches, no candidate list does
    instances = tmp_path / "instances.jsonl"
    assert main(["make-instances", "--corpus", str(pipeline["corpus"]), "--limit", "6",
                 "--seed", "7", "--out", str(instances)]) == 0
    capsys.readouterr()
    out = tmp_path / "report.json"
    assert main(["evaluate", "--sessions", str(pipeline["sessions"]), "--instances", str(instances),
                 "--out", str(out)]) == 1
    first = records_of(pipeline["sessions"])[0]["id"]
    assert capsys.readouterr().err.splitlines() == [
        f"error: PipelineError: session {first!r} does not rank its instance's candidates"]
    assert not out.exists()


def test_evaluate_scores_the_ranking_filter_keeps_by(pipeline, tmp_path, capsys):
    # `final_ranking` is a copy of the trajectory's ranking: a hand-edited copy changes no score
    records = records_of(pipeline["sessions"])
    for record in records[::3]:
        record["final_ranking"][:2] = record["final_ranking"][1::-1]
    sessions = tmp_path / "sessions.jsonl"
    sessions.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    kept = tmp_path / "kept.jsonl"
    assert main(["filter", "--sessions", str(sessions), "--out", str(kept)]) == 0
    report = tmp_path / "report.json"
    assert main(["evaluate", "--sessions", str(sessions), "--instances", str(pipeline["instances"]),
                 "--out", str(report)]) == 0
    capsys.readouterr()
    hr1 = json.loads(report.read_text(encoding="utf-8"))["overall"]["per_k"]["1"]["fraction"]
    assert Fraction(hr1) == Fraction(len(records_of(kept)), len(records)) == 1


def test_evaluate_refuses_an_unparsable_trajectory(pipeline, tmp_path, capsys):
    records = records_of(pipeline["sessions"])
    records[1]["trajectory"] = records[1]["trajectory"].replace("</recommend>", "")
    sessions = tmp_path / "sessions.jsonl"
    sessions.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["evaluate", "--sessions", str(sessions), "--instances", str(pipeline["instances"]),
                 "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: PipelineError: session {records[1]['id']!r} has an unparsable "
                           "trajectory: unclosed")
    assert not out.exists()


@pytest.mark.parametrize("key", ["corpus_dir", "graph_path", "cache_path", "seed"])
def test_a_config_key_for_a_path_or_the_seed_is_unknown(pipeline, tmp_path, capsys, key):
    # paths and the seed are flags: a config key for one would be a second source
    config = tmp_path / "pipeline.ini"
    config.write_text(f"[pipeline]\n{key} = 3\n", encoding="utf-8")
    cache = tmp_path / "cache.jsonl"
    assert main(["verbalize", "--config", str(config), "--backend", "mock",
                 "--corpus", str(pipeline["corpus"]), "--graph", str(pipeline["graph"]),
                 "--out", str(cache)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: PipelineError: unknown config key {key!r}"]
    assert not cache.exists()
