"""Command-line interface: exit codes, printed lines, and artifact shapes."""

from __future__ import annotations

import filecmp
import json
import os
from pathlib import Path

import pytest

from recteacher.cli import main
from recteacher.util import read_jsonl


def records_of(path):
    return [record for _, record in read_jsonl(path)]


@pytest.fixture(scope="session")
def pipeline(toy_files, tmp_path_factory):
    """Full mock-backend pipeline over the toy corpus, built once."""
    root = tmp_path_factory.mktemp("pipeline")
    paths = {
        "corpus": root / "corpus",
        "graph": root / "graph.jsonl",
        "cache": root / "evidence.jsonl",
        "instances": root / "instances.jsonl",
        "sessions": root / "sessions.jsonl",
        "kept": root / "kept.jsonl",
    }
    steps = [
        ["ingest", "--users", str(toy_files["users"]), "--items", str(toy_files["items"]),
         "--reviews", str(toy_files["reviews"]), "--out", str(paths["corpus"])],
        ["build-graph", "--corpus", str(paths["corpus"]), "--out", str(paths["graph"])],
        ["verbalize", "--corpus", str(paths["corpus"]), "--graph", str(paths["graph"]),
         "--out", str(paths["cache"]), "--backend", "mock"],
        ["make-instances", "--corpus", str(paths["corpus"]), "--limit", "6",
         "--out", str(paths["instances"])],
        ["run-teacher", "--corpus", str(paths["corpus"]), "--graph", str(paths["graph"]),
         "--cache", str(paths["cache"]), "--instances", str(paths["instances"]),
         "--out", str(paths["sessions"]), "--backend", "mock"],
        ["filter", "--sessions", str(paths["sessions"]), "--out", str(paths["kept"])],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    return paths


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["run-teacher", "--no-such-flag"])
    assert excinfo.value.code == 2
    capsys.readouterr()


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
    code = main(["build-graph", "--out", str(tmp_path / "g.jsonl")])
    captured = capsys.readouterr()
    assert code == 1
    assert "error: PipelineError: no corpus path given" in captured.err


def test_script_requires_mock_backend(pipeline, tmp_path, capsys):
    script = tmp_path / "script.json"
    script.write_text("[]", encoding="utf-8")
    code = main(["verbalize", "--corpus", str(pipeline["corpus"]),
                 "--graph", str(pipeline["graph"]), "--out", str(tmp_path / "c.jsonl"),
                 "--script", str(script)])
    captured = capsys.readouterr()
    assert code == 1
    assert "--script requires --backend mock" in captured.err


def test_http_backend_requires_endpoint(pipeline, tmp_path, capsys):
    code = main(["verbalize", "--corpus", str(pipeline["corpus"]),
                 "--graph", str(pipeline["graph"]), "--out", str(tmp_path / "c.jsonl")])
    captured = capsys.readouterr()
    assert code == 1
    assert "endpoint" in captured.err


def test_ingest_reports_counts(toy_files, tmp_path, capsys):
    code = main(["ingest", "--users", str(toy_files["users"]), "--items", str(toy_files["items"]),
                 "--reviews", str(toy_files["reviews"]), "--out", str(tmp_path / "corpus")])
    captured = capsys.readouterr()
    assert code == 0
    assert "ingested 30 users, 50 items, 442 interactions" in captured.out


def test_parallel_flag_validation(toy_files, tmp_path, capsys):
    code = main(["ingest", "--users", str(toy_files["users"]), "--items", str(toy_files["items"]),
                 "--reviews", str(toy_files["reviews"]), "--out", str(tmp_path / "corpus"),
                 "--parallel", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert "--parallel must be >= 1" in captured.err


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


def test_verbalize_reports_and_only_missing(pipeline, capsys):
    # the cache is fully warmed by the fixture; --only-missing adds nothing
    assert main(["verbalize", "--corpus", str(pipeline["corpus"]),
                 "--graph", str(pipeline["graph"]), "--out", str(pipeline["cache"]),
                 "--backend", "mock", "--only-missing"]) == 0
    captured = capsys.readouterr()
    assert "(0 new, 0 failed)" in captured.out
    # 50 items + 30 users
    assert "cache entries: 80" in captured.out


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
    config = tmp_path / "ondemand.ini"
    config.write_text("[pipeline]\non_demand_verbalize = true\n", encoding="utf-8")
    for workers in ("1", "4"):
        run = tmp_path / f"parallel-{workers}"
        run.mkdir()
        assert main(["run-teacher", "--corpus", str(pipeline["corpus"]),
                     "--graph", str(pipeline["graph"]), "--cache", str(run / "cache.jsonl"),
                     "--instances", str(pipeline["instances"]),
                     "--out", str(run / "sessions.jsonl"), "--backend", "mock",
                     "--config", str(config), "--parallel", workers]) == 0
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


def test_run_teacher_parses_instances_at_most_a_window_ahead(pipeline, tmp_path, capsys,
                                                             monkeypatch):
    import recteacher.cli as cli

    persisted: list[str] = []
    parsed_at: list[int] = []  # sessions persisted when each instance record was parsed
    parse, persist = cli._instance_from_record, cli.ToolRunner.persist

    def counting_parse(record):
        parsed_at.append(len(persisted))
        return parse(record)

    def counting_persist(runner, log):
        persisted.append(log.user)
        return persist(runner, log)

    monkeypatch.setattr(cli, "_instance_from_record", counting_parse)
    monkeypatch.setattr(cli.ToolRunner, "persist", counting_persist)
    out = tmp_path / "sessions.jsonl"
    assert main(["run-teacher", "--corpus", str(pipeline["corpus"]),
                 "--graph", str(pipeline["graph"]), "--cache", str(pipeline["cache"]),
                 "--instances", str(pipeline["instances"]), "--out", str(out),
                 "--backend", "mock", "--parallel", "2"]) == 0
    capsys.readouterr()
    assert filecmp.cmp(out, pipeline["sessions"], shallow=False)
    count = len(records_of(pipeline["instances"]))
    assert count > 4 and len(persisted) == count
    # the last pass parses each instance as its session is submitted: at most
    # two per worker beyond the sessions already handed to the writer
    submitted = parsed_at[-count:]
    assert max(index - done for index, done in enumerate(submitted)) <= 2 * 2


def test_a_bad_instance_file_fails_before_any_session(pipeline, tmp_path, capsys):
    *good, last = records_of(pipeline["instances"])
    broken = {key: value for key, value in last.items() if key != "candidates"}
    instances = tmp_path / "instances.jsonl"
    instances.write_text("".join(json.dumps(r) + "\n" for r in [*good, broken]), encoding="utf-8")
    script = tmp_path / "script.json"
    script.write_text("[]", encoding="utf-8")  # any gateway call would exhaust it
    out = tmp_path / "sessions.jsonl"
    assert main(["run-teacher", "--corpus", str(pipeline["corpus"]),
                 "--graph", str(pipeline["graph"]), "--cache", str(pipeline["cache"]),
                 "--instances", str(instances), "--out", str(out),
                 "--backend", "mock", "--script", str(script), "--parallel", "2"]) == 1
    captured = capsys.readouterr()
    assert f"error: PipelineError: bad instance record {last['id']!r}" in captured.err
    assert sorted(os.listdir(tmp_path)) == ["instances.jsonl", "script.json"]  # no output, no temp


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


def test_script_backend_drives_run_teacher(pipeline, tmp_path, capsys):
    # one instance, one planned subtask, no tool call, empty ranking repaired
    instance = records_of(pipeline["instances"])[0]
    folds = max(0, -(-len(instance["history"]) // 10) - 1)  # history chunks at m=10
    script = tmp_path / "script.json"
    script.write_text(json.dumps(
        ["<SUMMARY>the early arc</SUMMARY>"] * folds + [
            'One lens is enough.\n<JSON>["User_Profile_Summary"]</JSON>',
            'Straight to the point.\n<JSON>["profile sketch"]</JSON>',
            'Holds up.\n<JSON>{"correct": "yes"}</JSON>',
            "No preference signal; keeping the given order.\n<JSON>[]</JSON>",
        ]
    ), encoding="utf-8")
    single = tmp_path / "one.jsonl"
    single.write_text(json.dumps(instance) + "\n", encoding="utf-8")
    out = tmp_path / "sessions.jsonl"
    assert main(["run-teacher", "--corpus", str(pipeline["corpus"]),
                 "--graph", str(pipeline["graph"]), "--cache", str(pipeline["cache"]),
                 "--instances", str(single), "--out", str(out),
                 "--backend", "mock", "--script", str(script)]) == 0
    capsys.readouterr()
    (record,) = records_of(out)
    assert [p["phase"] for p in record["phases"]] == ["plan", "user_profile", "reflection", "recommend"]
    assert record["final_ranking"] == record["candidates"]  # empty list repaired in order


def test_run_teacher_failure_keeps_the_earlier_output(pipeline, tmp_path, capsys):
    # two scripted sessions at one worker; the script runs out at the second plan
    first, second = records_of(pipeline["instances"])[:2]
    instances = tmp_path / "two.jsonl"
    instances.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n", encoding="utf-8")

    def folds(instance):  # history chunks at m=10
        return ["<SUMMARY>the early arc</SUMMARY>"] * max(0, -(-len(instance["history"]) // 10) - 1)

    script = tmp_path / "script.json"
    script.write_text(json.dumps(folds(first) + [
        'One lens is enough.\n<JSON>["User_Profile_Summary"]</JSON>',
        'Straight to the point.\n<JSON>["profile sketch"]</JSON>',
        'Holds up.\n<JSON>{"correct": "yes"}</JSON>',
        "No preference signal; keeping the given order.\n<JSON>[]</JSON>",
    ] + folds(second)), encoding="utf-8")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "sessions.jsonl"
    earlier = pipeline["sessions"].read_bytes()
    out.write_bytes(earlier)
    assert main(["run-teacher", "--corpus", str(pipeline["corpus"]),
                 "--graph", str(pipeline["graph"]), "--cache", str(pipeline["cache"]),
                 "--instances", str(instances), "--out", str(out),
                 "--backend", "mock", "--script", str(script), "--parallel", "1"]) == 1
    captured = capsys.readouterr()
    assert "error: SessionError: session aborted in phase 'plan'" in captured.err
    assert "script exhausted" in captured.err
    assert out.read_bytes() == earlier
    assert sorted(os.listdir(out_dir)) == ["sessions.jsonl"]


def test_abstraction_failure_is_a_one_line_session_error(pipeline, tmp_path, capsys):
    # more history than one window (m=10), so the first call is a summary
    record = next(r for r in records_of(pipeline["instances"]) if len(r["history"]) > 10)
    instances = tmp_path / "one.jsonl"
    instances.write_text(json.dumps(record) + "\n", encoding="utf-8")
    script = tmp_path / "script.json"
    script.write_text("[]", encoding="utf-8")
    code = main(["run-teacher", "--corpus", str(pipeline["corpus"]),
                 "--graph", str(pipeline["graph"]), "--cache", str(pipeline["cache"]),
                 "--instances", str(instances), "--out", str(tmp_path / "sessions.jsonl"),
                 "--backend", "mock", "--script", str(script)])
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


def test_config_file_supplies_paths(pipeline, tmp_path, capsys):
    config = tmp_path / "pipeline.ini"
    config.write_text(
        "[pipeline]\n"
        f"corpus_dir = {pipeline['corpus']}\n"
        f"graph_path = {tmp_path / 'graph.jsonl'}\n",
        encoding="utf-8",
    )
    assert main(["build-graph", "--config", str(config)]) == 0
    captured = capsys.readouterr()
    assert "graph: 30 users, 50 items, 442 edges" in captured.out
    assert (tmp_path / "graph.jsonl").exists()
