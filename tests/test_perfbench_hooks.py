"""The benchmark hooks engine functions by name from outside the engine;
a hook whose target is gone is skipped and its per-layer metrics drop
out silently. This test makes a renamed engine function fail the suite
instead."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("name", sorted(tracing.HOOKS))
def test_every_hook_target_resolves(name):
    *_, target = tracing._resolve(*tracing.HOOKS[name])  # AttributeError when it is gone
    assert callable(target)
