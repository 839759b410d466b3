from __future__ import annotations

import json

import pytest

from timem import EngineConfig
from timem.cli import EXIT_DATA, main


@pytest.mark.parametrize("key,value", [
    ("segment_turns", 2), ("level_count", 4), ("profile_period", "week"),
    ("fusion_weight", 1.5), ("fusion_weight", -0.1), ("bm25_b", 2), ("bm25_k1", -1.0),
    ("history_window", -1), ("max_retries", -1), ("temperature_consolidate", -0.5),
    ("temperature_plan", -0.1), ("temperature_gate", -1.0), ("leaf_budget", 0),
    ("embedding_dim", 0), ("max_concurrency", 0), ("max_output_tokens", 0),
    ("request_timeout", 0), ("request_timeout", -1.0),
])
def test_unsupported_settings_rejected(key, value, tmp_path):
    with pytest.raises(ValueError, match=key):
        EngineConfig(**{key: value})
    with pytest.raises(ValueError, match=key):
        EngineConfig.from_dict({key: value})
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: value}), encoding="utf-8")
    assert main(["config-dump", "--config", str(path)]) == EXIT_DATA


def test_negative_cap_rejected(tmp_path):
    with pytest.raises(ValueError, match="cap_simple_l1"):
        EngineConfig.from_dict({"cap_simple_l1": -1})
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"cap_simple_l1": -1}), encoding="utf-8")
    assert main(["config-dump", "--config", str(path)]) == EXIT_DATA
    assert EngineConfig.from_dict({"cap_simple_l1": 0}).level_caps("simple")[1] == 0


def test_boundary_values_accepted():
    EngineConfig(fusion_weight=0, bm25_b=1, bm25_k1=0, history_window=0, max_retries=0,
                 temperature_consolidate=0, leaf_budget=1, embedding_dim=1,
                 max_concurrency=1, max_output_tokens=1, request_timeout=0.01)
