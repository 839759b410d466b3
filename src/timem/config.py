"""Engine configuration.

All tunables live here as flat key-value pairs so a config file can
override any of them without code changes. Defaults mirror the recall
and consolidation constants the engine was calibrated with.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

# Per-complexity ancestor budgets, keyed "cap_<complexity>_l<level>".
DEFAULT_CAPS = {
    "cap_simple_l1": 20,
    "cap_simple_l2": 4,
    "cap_simple_l5": 1,
    "cap_hybrid_l1": 20,
    "cap_hybrid_l2": 4,
    "cap_hybrid_l3": 2,
    "cap_hybrid_l5": 1,
    "cap_complex_l1": 20,
    "cap_complex_l2": 8,
    "cap_complex_l3": 4,
    "cap_complex_l4": 2,
    "cap_complex_l5": 1,
}

# Settings the engine does not vary: any value but the default is rejected.
_FIXED = {"segment_turns": 1, "level_count": 5, "profile_period": "month"}

# The accepted values of each numeric setting, as a named rule; a setting
# declared `int`, and every cap, takes integers only, and none takes a bool.
_RULES = {"in [0, 1]": lambda v: 0 <= v <= 1, ">= 0": lambda v: v >= 0,
          ">= 1": lambda v: v >= 1, "> 0": lambda v: v > 0}
_RANGES = {
    **dict.fromkeys(("fusion_weight", "bm25_b"), "in [0, 1]"),
    **dict.fromkeys(("bm25_k1", "history_window", "max_retries", "temperature_consolidate",
                     "temperature_plan", "temperature_gate", *DEFAULT_CAPS), ">= 0"),
    **dict.fromkeys(("leaf_budget", "embedding_dim", "max_concurrency",
                     "max_output_tokens"), ">= 1"),
    "request_timeout": "> 0",
}


@dataclass
class EngineConfig:
    # scoring
    fusion_weight: float = 0.9          # weight of the semantic channel
    leaf_budget: int = 20               # top-k leaves activated per query
    bm25_k1: float = 1.2
    bm25_b: float = 0.75
    # consolidation
    history_window: int = 3             # same-level history per consolidation
    segment_turns: int = 1              # dialog turns per base segment
    level_count: int = 5
    profile_period: str = "month"       # calendar period of profile updates
    # embeddings
    embedding_dim: int = 1024
    # providers
    chat_endpoint: str = "http://localhost:8000/v1/chat/completions"
    embed_endpoint: str = "http://localhost:8000/v1/embeddings"
    chat_model: str = "default-chat"
    embed_model: str = "default-embed"
    request_timeout: float = 30.0
    max_retries: int = 3
    max_concurrency: int = 4
    temperature_consolidate: float = 0.7
    temperature_plan: float = 0.0
    temperature_gate: float = 0.0
    max_output_tokens: int = 512
    # misc
    prompt_dir: str = ""                # empty = packaged prompt templates
    caps: dict = field(default_factory=dict)  # merged over DEFAULT_CAPS

    def __post_init__(self):
        for name, supported in _FIXED.items():
            value = getattr(self, name)
            if value != supported:
                raise ValueError(f"{name}={value!r} is not supported; only {supported!r} is")
        unknown = sorted(set(self.caps) - set(DEFAULT_CAPS))
        if unknown:
            raise KeyError(f"unknown budget key: {', '.join(unknown)}")
        self.caps = {**DEFAULT_CAPS, **self.caps}
        integers = {f.name for f in fields(self) if f.type == "int"} | set(DEFAULT_CAPS)
        for name, value in {**vars(self), **self.caps}.items():
            rule = _RANGES.get(name)
            numeric = numbers.Integral if name in integers else numbers.Real
            if rule and (isinstance(value, bool) or not isinstance(value, numeric)
                         or not _RULES[rule](value)):
                kind = "an integer" if numeric is numbers.Integral else "a number"
                raise ValueError(f"{name}={value!r} is not {kind} {rule}")

    def to_dict(self) -> dict:
        d = asdict(self)
        caps = d.pop("caps")
        d.update(caps)  # flatten: cap_* keys live at top level
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "EngineConfig":
        known = {f.name for f in fields(cls)} - {"caps"}
        kwargs = {}
        caps = {}
        for key, value in data.items():
            if key.startswith("cap_"):
                caps[key] = value
            elif key in known:
                kwargs[key] = value
            else:
                raise KeyError(f"unknown config key: {key}")
        return cls(caps=caps, **kwargs)

    @classmethod
    def load(cls, path: str | Path) -> "EngineConfig":
        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

    def dump(self, path: str | Path | None = None) -> str:
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    def level_caps(self, complexity: str) -> dict[int, int]:
        """Budget map {level: max count} for one complexity label."""
        prefix = f"cap_{complexity}_l"
        return {
            int(key[len(prefix):]): value
            for key, value in self.caps.items()
            if key.startswith(prefix)
        }
