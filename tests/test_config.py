from __future__ import annotations

import json

import pytest

from timem import EngineConfig
from timem.cli import EXIT_DATA, main


@pytest.mark.parametrize("key,value", [
    ("segment_turns", 2), ("level_count", 4), ("profile_period", "week"),
])
def test_unsupported_settings_rejected(key, value, tmp_path):
    with pytest.raises(ValueError, match=key):
        EngineConfig(**{key: value})
    with pytest.raises(ValueError, match=key):
        EngineConfig.from_dict({key: value})
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: value}), encoding="utf-8")
    assert main(["config-dump", "--config", str(path)]) == EXIT_DATA
