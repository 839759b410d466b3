from __future__ import annotations

import json

import pytest

from timem import EngineConfig
from timem.cli import EXIT_DATA, EXIT_OK, main
from timem.config import DEFAULT_CAPS


@pytest.mark.parametrize("key,value", [
    ("segment_turns", 2), ("level_count", 4), ("profile_period", "week"),
    ("fusion_weight", 1.5), ("fusion_weight", -0.1), ("bm25_b", 2), ("bm25_k1", -1.0),
    ("history_window", -1), ("max_retries", -1), ("temperature_consolidate", -0.5),
    ("temperature_plan", -0.1), ("temperature_gate", -1.0), ("leaf_budget", 0),
    ("embedding_dim", 0), ("max_concurrency", 0), ("max_output_tokens", 0),
    ("request_timeout", 0), ("request_timeout", -1.0),
    ("leaf_budget", 2.5), ("leaf_budget", 20.0), ("leaf_budget", True),
    ("history_window", 3.0), ("history_window", False), ("embedding_dim", 1024.0),
    ("max_retries", 1.5), ("max_concurrency", 4.0), ("max_output_tokens", 512.0),
    ("fusion_weight", True), ("request_timeout", True),
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


@pytest.mark.parametrize("caps,error,match", [
    ({"cap_simple_l1": 2.5}, ValueError, "cap_simple_l1"),
    ({"cap_hybrid_l3": 2.0}, ValueError, "cap_hybrid_l3"),
    ({"cap_complex_l5": True}, ValueError, "cap_complex_l5"),
    ({"cap_simple_l9": 1}, KeyError, "cap_simple_l9"),
])
def test_caps_must_be_known_integers(caps, error, match, tmp_path):
    with pytest.raises(error, match=match):
        EngineConfig(caps={**DEFAULT_CAPS, **caps})
    with pytest.raises(error, match=match):
        EngineConfig.from_dict(caps)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(caps), encoding="utf-8")
    assert main(["config-dump", "--config", str(path)]) == EXIT_DATA


def test_a_fractional_leaf_budget_is_refused_before_recall(tmp_path, capsys):
    """`leaf_budget` 2.5 used to pass config-dump and ingest, then crash
    recall with an uncaught TypeError and the usage exit code."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"leaf_budget": 2.5}), encoding="utf-8")
    data_dir = tmp_path / "data"
    assert main(["gen-fixture", "--out", str(tmp_path / "fx"), "--users", "1",
                 "--turns", "10", "--questions", "1"]) == EXIT_OK
    [transcript] = (tmp_path / "fx").glob("transcript_*.json")
    assert main(["ingest", "--data-dir", str(data_dir), str(transcript)]) == EXIT_OK
    for args in (["config-dump"], ["ingest", "--data-dir", str(data_dir), str(transcript)],
                 ["recall", "--data-dir", str(data_dir), "--user", "alice", "kayaking"]):
        assert main([*args, "--config", str(config)]) == EXIT_DATA
        assert "leaf_budget=2.5 is not an integer >= 1" in capsys.readouterr().err


def test_boundary_values_accepted():
    EngineConfig(fusion_weight=0, bm25_b=1, bm25_k1=0, history_window=0, max_retries=0,
                 temperature_consolidate=0, leaf_budget=1, embedding_dim=1,
                 max_concurrency=1, max_output_tokens=1, request_timeout=0.01)
