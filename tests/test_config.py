"""INI config loading, conversion, and validation."""

from __future__ import annotations

import pytest

from recteacher.config import PipelineConfig, load_config, validate_config
from recteacher.errors import PipelineError
from recteacher.evaluate import ScenarioThresholds


def write_config(tmp_path, body):
    path = tmp_path / "pipeline.ini"
    path.write_text(body, encoding="utf-8")
    return path


def test_defaults_without_file():
    config = load_config(None)
    assert config == PipelineConfig()
    assert config.seed == 0
    assert config.group_size == 8
    assert config.temperature == 0.7
    assert config.top_p == 0.95
    assert config.rl_ratio == (3, 4, 3)
    assert config.window_m == 10


def test_load_overrides_types(tmp_path):
    path = write_config(tmp_path, "\n".join([
        "[pipeline]",
        "corpus_dir = data/x",
        "seed = 7",
        "temperature = 0.2",
        "ranker_tools = no",
        "on_demand_verbalize = TRUE",
        "rl_ratio = 1, 2, 1",
        "window_m = 4",
    ]))
    config = load_config(path)
    assert config.corpus_dir == "data/x"
    assert config.seed == 7
    assert config.temperature == 0.2
    assert config.ranker_tools is False
    assert config.on_demand_verbalize is True
    assert config.rl_ratio == (1, 2, 1)
    assert config.window_m == 4
    # untouched keys keep their defaults
    assert config.group_size == 8


def test_load_errors(tmp_path):
    with pytest.raises(PipelineError, match="not found"):
        load_config(tmp_path / "absent.ini")
    with pytest.raises(PipelineError, match="no \\[pipeline\\] section"):
        load_config(write_config(tmp_path, "[other]\nseed = 1\n"))
    with pytest.raises(PipelineError, match="unknown config key"):
        load_config(write_config(tmp_path, "[pipeline]\nseeed = 1\n"))
    with pytest.raises(PipelineError, match="unknown config key 'output_dir'"):
        load_config(write_config(tmp_path, "[pipeline]\noutput_dir = out\n"))
    with pytest.raises(PipelineError, match="cannot parse"):
        load_config(write_config(tmp_path, "[pipeline]\nseed = soon\n"))
    with pytest.raises(PipelineError, match="cannot parse"):
        load_config(write_config(tmp_path, "[pipeline]\nranker_tools = maybe\n"))
    with pytest.raises(PipelineError, match="rl_ratio"):
        load_config(write_config(tmp_path, "[pipeline]\nrl_ratio = 3,4\n"))
    with pytest.raises(PipelineError, match="rl_ratio"):
        load_config(write_config(tmp_path, "[pipeline]\nrl_ratio = a,b,c\n"))


def test_validate_ranges(tmp_path):
    for line in ("window_m = 0", "neighbor_k = 0", "group_size = 0", "rl_target = 0"):
        with pytest.raises(PipelineError):
            load_config(write_config(tmp_path, f"[pipeline]\n{line}\n"))


def test_validate_templates_dir(tmp_path):
    config = PipelineConfig(templates_dir=str(tmp_path / "nowhere"))
    with pytest.raises(PipelineError, match="missing"):
        validate_config(config)


def test_gateway_and_thresholds_views():
    config = PipelineConfig(
        endpoint="http://example/v1",
        model="local-model",
        max_parallel=2,
        retries=1,
        timeout_s=5.0,
        cold_user_max_history=3,
        evo_short_max_gap_s=100,
    )
    gw = config.gateway_config()
    assert gw.endpoint == "http://example/v1"
    assert gw.model == "local-model"
    assert gw.max_parallel == 2
    assert gw.retries == 1
    assert gw.timeout_s == 5.0
    thresholds = config.scenario_thresholds()
    assert thresholds == ScenarioThresholds(
        cold_user_max_history=3,
        cold_item_max_interactions=2,
        evo_long_min_history=10,
        evo_short_max_gap_s=100,
    )
    assert PipelineConfig().templates_path() is None


def test_shipped_example_config_loads():
    from conftest import REPO_ROOT

    config = load_config(REPO_ROOT / "config.example.ini")
    assert config.corpus_dir
    assert config.seed == 0
