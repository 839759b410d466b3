from __future__ import annotations

import json
import math
import socket
import threading

import pytest

from timem import EngineConfig
from timem.cli import EXIT_DATA, EXIT_OK, main
from timem.config import _RANGES, DEFAULT_CAPS


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
    ("fusion_weight", True), ("request_timeout", True), ("request_timeout", 1e10),
    ("chat_endpoint", 5), ("embed_endpoint", None), ("chat_model", None), ("embed_model", ["x"]),
    ("prompt_dir", 5), ("prompt_dir", True),  # Path(5) raised TypeError in every engine command
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


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("key", sorted(_RANGES))  # every numeric setting and cap
def test_non_finite_settings_rejected(key, value, tmp_path, capsys):
    """inf used to pass wherever a rule has no upper end: it broke every HTTP
    call (request_timeout), sent Infinity to the provider (temperature_*)
    or zeroed every s_lex (bm25_k1)."""
    kwargs = {"caps": {key: value}} if key in DEFAULT_CAPS else {key: value}
    with pytest.raises(ValueError, match=key):
        EngineConfig(**kwargs)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: value}), encoding="utf-8")  # Infinity, -Infinity, NaN
    assert main(["config-dump", "--config", str(path)]) == EXIT_DATA
    assert f"{key}={value!r} is not " in capsys.readouterr().err


def test_the_longest_request_timeout_a_socket_takes_is_accepted():
    config = EngineConfig(request_timeout=threading.TIMEOUT_MAX)
    with socket.socket() as sock:
        sock.settimeout(config.request_timeout)
    with pytest.raises(ValueError, match=rf"^request_timeout=10000000000 is above "
                                         rf"{threading.TIMEOUT_MAX}, the longest timeout"):
        EngineConfig(request_timeout=10 ** 10)  # an int is refused too, as a float is


def test_non_finite_message_names_the_rule():
    with pytest.raises(ValueError, match=r"^bm25_k1=inf is not a finite number >= 0$"):
        EngineConfig(bm25_k1=math.inf)
    with pytest.raises(ValueError, match=r"^request_timeout=nan is not a finite number > 0$"):
        EngineConfig(request_timeout=math.nan)
    EngineConfig(leaf_budget=10 ** 400)  # an int beyond float range still compares below inf


@pytest.mark.parametrize("text", ["[]", '"x"', "null", "5", '[{"leaf_budget": 5}]'])
def test_a_config_file_that_is_not_an_object_is_a_data_error(text, tmp_path, capsys):
    """`from_dict` used to call `.items()` on whatever the file held, so
    an array, a string or null left the CLI as an AttributeError."""
    with pytest.raises(ValueError, match=r"^a config must be a JSON object, not "):
        EngineConfig.from_dict(json.loads(text))
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    assert main(["config-dump", "--config", str(path)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err == f"data error: a config must be a JSON object, not {text}\n"
