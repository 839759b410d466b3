"""Tests of the benchmark's own parts: seeded generators, span recorder,
self-time arithmetic and hook fallback.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import tracing  # noqa: E402
from run import percentile  # noqa: E402
from tracing import NAME, NOTE, PARENT, REQUEST, Recorder, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import SHAPES, generate  # noqa: E402


def _fingerprint(wl):
    return ([(u, vars(t)) for u, t in wl.stream], wl.asks, wl.final)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_generator_is_deterministic_for_a_seed(name):
    assert _fingerprint(generate(name, 7)) == _fingerprint(generate(name, 7))
    assert _fingerprint(generate(name, 7)) != _fingerprint(generate(name, 8))
    # the seed changes what is said, not when: every seed does the same work
    assert ([(u, t.turn_id, t.timestamp) for u, t in generate(name, 7).stream]
            == [(u, t.turn_id, t.timestamp) for u, t in generate(name, 8).stream])


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_generator_shape_is_fixed_and_questions_are_answerable(name):
    shape = SHAPES[name]
    wl = generate(name, 3)
    assert len(wl.stream) == shape.users * shape.turns_per_user
    assert len(wl.users) == shape.users
    stamps = [t.timestamp for _, t in wl.stream]
    assert stamps == sorted(stamps)
    # sessions cross day, ISO-week and month boundaries
    assert len({s.date() for s in stamps}) > len({s.isocalendar()[:2] for s in stamps}) \
        > len({(s.year, s.month) for s in stamps}) > 3
    seen: dict[str, int] = {}
    for index, (user, turn) in enumerate(wl.stream):
        seen[turn.turn_id] = index
        q = wl.asks.get(index)
        if q is not None:
            assert q.user_id == user and q.t_q == turn.timestamp
            assert q.evidence_turn_ids
            assert all(seen.get(t, index + 1) <= index for t in q.evidence_turn_ids)
    for q in wl.final:
        assert q.evidence_turn_ids and q.t_q > stamps[-1]
    if shape.ask_every:
        assert len(wl.asks) == len(wl.stream) // shape.ask_every
    assert len(wl.final) == shape.final_questions


def _span(name, start, end, parent=None, request=0):
    return [name, start, end, parent, request, None]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", 0, 100),
        _span("a", 10, 40, parent=0),
        _span("a.inner", 20, 30, parent=1),
        _span("b", 50, 70, parent=0),
        _span("c", 60, 80, parent=0),      # overlaps b: 50..80 is covered once
        _span("d", 95, 120, parent=0),     # runs past its parent: clipped to 95..100
    ]
    assert self_times(spans) == [100 - 30 - 30 - 5, 20, 10, 20, 20, 25]


def test_recorder_links_parents_requests_and_notes():
    rec = Recorder()
    inner = rec.wrap("inner", lambda x: x * 2, note=lambda a, k, r: r + 1)
    outer = rec.wrap("outer", lambda x: inner(x) + inner(x + 1))

    def fail():
        raise KeyError("boom")
    failing = rec.wrap("failing", fail)

    assert outer(1) == 6
    with pytest.raises(KeyError):
        failing()
    assert outer(5) == 22
    names = [s[NAME] for s in rec.spans]
    assert names == ["outer", "inner", "inner", "failing", "outer", "inner", "inner"]
    assert [s[PARENT] for s in rec.spans] == [None, 0, 0, None, None, 4, 4]
    assert [s[REQUEST] for s in rec.spans] == [0, 0, 0, 3, 4, 4, 4]
    assert [s[NOTE] for s in rec.spans] == [None, 3, 5, None, None, 11, 13]
    assert all(s[2] >= s[1] > 0 for s in rec.spans)


def test_percentile_needs_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 201)]
    assert percentile(values, 0.95) == 190.0
    with pytest.raises(ValueError):
        percentile(values[:199], 0.95)


def test_missing_hook_drops_only_its_metrics(monkeypatch):
    from timem import MemoryEngine, MockChatBackend, MockEmbedder
    monkeypatch.setitem(tracing.HOOKS, "indexing.fused_top_k", ("timem.recall", "no_such_function"))
    wl = generate("chat_loop", 1)
    tracer = Tracer()
    with tracer.tracing():
        engine = MemoryEngine(chat=tracer.chat_proxy(MockChatBackend()),
                              embedder=tracer.embed_proxy(MockEmbedder()))
        for index, (user, turn) in enumerate(wl.stream[:64]):
            engine.ingest_turn(user, turn)
            q = wl.asks.get(index)
            if q is not None:
                engine.recall(q.user_id, q.text, t_q=q.t_q)
    metrics = layer_metrics(tracer)
    assert tracer.missing == {"indexing.fused_top_k"}
    assert "indexing.fused_top_k_ms_p50" not in metrics
    assert "indexing.leaves_scored_per_recall" not in metrics
    assert metrics["trace.recalls"]["value"] == len(wl.asks.keys() & set(range(64)))
    assert metrics["backends.chat_calls_per_recall"]["value"] == 2.0
    assert metrics["store.fsyncs_per_turn"]["value"] == 0.0
    assert "recall.plan_query_ms_p50" in metrics
    # hooks are taken out again when tracing ends
    import timem.recall
    assert not hasattr(timem.recall.rank_final, "__wrapped__")
