"""INI config loading, conversion, and validation."""

from __future__ import annotations

import configparser
from dataclasses import fields
import logging

import pytest

from recteacher.cli import main
from recteacher.config import load_config
from recteacher.errors import PipelineError
from recteacher.gateway import GatewayConfig


def write_config(tmp_path, body):
    path = tmp_path / "pipeline.ini"
    path.write_text(body, encoding="utf-8")
    return path


def test_defaults_without_file():
    config = load_config(None)
    assert config == GatewayConfig()
    assert config.temperature == 0.7
    assert config.top_p == 0.95


def test_load_overrides_types(tmp_path):
    path = write_config(tmp_path, "\n".join([
        "[pipeline]",
        "model = m-1",
        "temperature = 0.2",
        "max_parallel = 2",
    ]))
    config = load_config(path)
    assert config.model == "m-1"
    assert config.temperature == 0.2
    assert config.max_parallel == 2
    # untouched keys keep their defaults
    assert config.top_p == 0.95


def test_load_errors(tmp_path):
    with pytest.raises(PipelineError, match="not found"):
        load_config(tmp_path / "absent.ini")
    with pytest.raises(PipelineError, match="no \\[pipeline\\] section"):
        load_config(write_config(tmp_path, "[other]\nretries = 1\n"))
    with pytest.raises(PipelineError, match="unknown config key"):
        load_config(write_config(tmp_path, "[pipeline]\nretriess = 1\n"))
    # paths and the seed are flags, not keys
    for retired in ("corpus_dir", "graph_path", "cache_path", "seed",
                    "output_dir", "ranker_tools", "templates_dir", "cold_user_max_history",
                    "cold_item_max_interactions", "evo_long_min_history", "evo_short_max_gap_s",
                    "rl_ratio", "rl_target", "neighbor_k", "window_m", "max_tool_rounds", "domain",
                    "group_size"):
        with pytest.raises(PipelineError, match=f"unknown config key '{retired}'"):
            load_config(write_config(tmp_path, f"[pipeline]\n{retired} = out\n"))
    with pytest.raises(PipelineError, match="cannot parse"):
        load_config(write_config(tmp_path, "[pipeline]\nretries = soon\n"))


@pytest.mark.parametrize("value", ["true", "false", "maybe"])
def test_a_retired_key_loads_with_one_warning_whatever_its_value(tmp_path, caplog, value):
    path = write_config(tmp_path, f"[pipeline]\non_demand_verbalize = {value}\nretries = 5\n")
    with caplog.at_level(logging.WARNING, logger="recteacher"):
        config = load_config(path)
    assert config == GatewayConfig(retries=5)
    (warning,) = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert "'on_demand_verbalize'" in warning and "no effect" in warning
    # an unknown key still fails, beside a retired one too
    with pytest.raises(PipelineError, match="unknown config key 'on_demand_verbalise'"):
        load_config(write_config(tmp_path, "[pipeline]\non_demand_verbalize = true\n"
                                           f"on_demand_verbalise = {value}\n"))


@pytest.mark.parametrize("body, error", [
    ("[pipeline]\nendpoint = http://x/a%20b\n", None),
    ("retries = 1\n", "File contains no section headers."),
    ("[pipeline]\nretries = 1\nretries = 2\n", "option 'retries' in section 'pipeline' already exists"),
    (b"[pipeline]\nretries = 1\n# caf\xe9\n", "'utf-8' codec can't decode byte 0xe9 in position 28"),
    ("[pipeline]\nretries = 3\n[gateway]\nmax_parallel = 16\nretries = 9\n",
     "unknown section [gateway]; every key goes under [pipeline]"),
], ids=["percent", "no-section-header", "repeated-key", "not-utf-8", "other-section"])
def test_config_file_syntax_ends_in_one_error_line(tmp_path, capsys, body, error):
    path = tmp_path / "pipeline.ini"
    path.write_bytes(body if isinstance(body, bytes) else body.encode("utf-8"))
    code = main(["verbalize", "--config", str(path), "--corpus", str(tmp_path / "nowhere"),
                 "--graph", str(tmp_path / "nowhere.jsonl"), "--out", str(tmp_path / "cache.jsonl")])
    error_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error: ")]
    assert code == 1 and len(error_lines) == 1
    if error is None:  # a `%` is literal, so the run gets past the config to the missing corpus
        assert load_config(path).endpoint == "http://x/a%20b"
        assert "nowhere" in error_lines[0]
    else:
        assert error_lines[0].startswith(f"error: PipelineError: config file {path}: ")
        assert error in error_lines[0]


def test_validate_ranges(tmp_path):
    for line in ("max_parallel = 0", "retries = -1", "timeout_s = 0",
                 "temperature = 5", "top_p = 0"):
        with pytest.raises(PipelineError, match=line.split(" = ")[0]):
            load_config(write_config(tmp_path, f"[pipeline]\n{line}\n"))


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_a_timeout_that_is_not_finite_is_refused(tmp_path, value):
    # float() parses both, and a send would only fail on them much later
    with pytest.raises(PipelineError, match="timeout_s"):
        load_config(write_config(tmp_path, f"[pipeline]\ntimeout_s = {value}\n"))


@pytest.mark.parametrize("endpoint", ["localhost:8000/v1", "ftp://host/v1", "http:///v1"])
def test_an_endpoint_that_is_not_an_http_url_fails_before_any_input_is_read(tmp_path, capsys,
                                                                           endpoint):
    # else each send fails as a connection error, and is retried with backoff, key after key
    path = write_config(tmp_path, f"[pipeline]\nendpoint = {endpoint}\n")
    code = main(["verbalize", "--config", str(path), "--corpus", str(tmp_path / "nowhere"),
                 "--graph", str(tmp_path / "nowhere.jsonl"), "--out", str(tmp_path / "cache.jsonl")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: PipelineError: endpoint {endpoint!r} is not an http(s) URL with a host"]
    path = write_config(tmp_path, "[pipeline]\nendpoint = https://api.example/v1\n")
    assert load_config(path).endpoint == "https://api.example/v1"


KEYS = {field.name for field in fields(GatewayConfig)}


def test_the_ini_keys_are_exactly_these_eight():
    # a new key is a new concept to document and test: adding one edits this list
    assert KEYS == {
        "endpoint", "model", "api_key_env", "max_parallel", "retries", "timeout_s",
        "temperature", "top_p",
    }


def test_every_example_key_lands_in_the_one_field_of_its_name(tmp_path):
    from conftest import REPO_ROOT

    parser = configparser.ConfigParser()
    parser.read(REPO_ROOT / "config.example.ini", encoding="utf-8")
    wanted = {}  # every key set to a valid value that is not its default
    for key in parser["pipeline"]:
        default = getattr(GatewayConfig(), key)
        if key == "endpoint":  # the one string key with a form: an http(s) URL
            wanted[key] = "http://endpoint-set/v1"
        elif isinstance(default, str):
            wanted[key] = f"{key}-set"
        elif isinstance(default, int):
            wanted[key] = default + 1
        else:
            wanted[key] = default / 2
    body = "".join(f"{key} = {value}\n" for key, value in wanted.items())
    config = load_config(write_config(tmp_path, f"[pipeline]\n{body}"))
    assert {key: getattr(config, key) for key in wanted} == wanted


def test_shipped_example_config_loads():
    from conftest import REPO_ROOT

    path = REPO_ROOT / "config.example.ini"
    # the example shows every default
    assert load_config(path) == GatewayConfig()
    # the example documents every key, and nothing that is not one
    parser = configparser.ConfigParser()
    parser.read(path, encoding="utf-8")
    assert set(parser["pipeline"]) == KEYS
