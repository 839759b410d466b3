from __future__ import annotations

import itertools
import json
import logging
import random
import sys
import tempfile
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timem import (
    Complexity,
    EngineConfig,
    Level,
    LogStore,
    MemoryEngine,
    MemoryNode,
    MemoryTree,
    TemporalInterval,
    strategy_levels,
)
from timem.backends import MockChatBackend, MockEmbedder, Purpose
from timem.config import DEFAULT_CAPS
from timem.errors import BackendFailure, UnknownUser
from timem.indexing import ScoredLeaf
from timem.recall import Candidate, RecallPipeline, rank_final
from timem.timeutil import format_ts, parse_ts

from conftest import RecordingChat, ingest_all, random_transcript, utc


class ScriptedChat:
    """Returns canned replies per purpose; falls back to the mock rules."""

    def __init__(self, replies: dict[Purpose, str]):
        self.replies = replies
        self.mock = MockChatBackend()

    def chat_complete(self, req):
        if req.purpose in self.replies:
            return self.replies[req.purpose]
        return self.mock.chat_complete(req)


def unit(dim, i):
    v = np.zeros(dim)
    v[i % dim] = 1.0
    return v


def pipeline_for(tree, chat=None, embedder=None) -> RecallPipeline:
    return RecallPipeline(tree, chat or MockChatBackend(), embedder or MockEmbedder(64))


# --- planner ---------------------------------------------------------------------

def test_plan_query_simple(engine):
    plan = engine.pipeline.plan_query("Where does Erin work?")
    assert plan.complexity is Complexity.SIMPLE
    assert plan.keywords == ["work"]
    assert not plan.planner_fallback_used


def test_plan_query_complex_modal(engine):
    plan = engine.pipeline.plan_query("Would Erin enjoy a beach vacation?")
    assert plan.complexity is Complexity.COMPLEX


def test_plan_query_fallback_on_malformed():
    tree = MemoryTree()
    pipe = pipeline_for(tree, chat=ScriptedChat({Purpose.PLAN: "not json at all"}))
    plan = pipe.plan_query("Where did Erin go kayaking last summer?")
    assert plan.planner_fallback_used
    assert plan.complexity is Complexity.HYBRID
    # top-3 TF non-stopword tokens of the query, frequency then alphabetical
    assert plan.keywords == ["erin", "go", "kayaking"]


@pytest.mark.parametrize("reply", [
    '{"complexity": 0, "keywords": "kayaking"}',  # a string, not an array
    '{"complexity": 0, "keywords": null}',
    '{"complexity": 0, "keywords": {"k": "kayaking"}}',
    '{"complexity": true, "keywords": ["kayaking"]}',
    '{"complexity": false, "keywords": ["kayaking"]}',
    '{"complexity": 1.9, "keywords": ["kayaking"]}',
    '{"complexity": 0.5, "keywords": ["kayaking"]}',
    '{"complexity": "1.0", "keywords": ["kayaking"]}',
    '{"complexity": 1e400, "keywords": ["kayaking"]}',  # inf, too large for int()
    '{"complexity": NaN, "keywords": ["kayaking"]}',
    '{"complexity": [0], "keywords": ["kayaking"]}',
    '{"complexity": 3, "keywords": ["kayaking"]}',
])
def test_plan_query_reply_of_the_wrong_type_falls_back(reply):
    pipe = pipeline_for(MemoryTree(), chat=ScriptedChat({Purpose.PLAN: reply}))
    plan = pipe.plan_query("Where did Erin go kayaking last summer?")
    assert plan.planner_fallback_used
    assert plan.complexity is Complexity.HYBRID
    assert plan.keywords == ["erin", "go", "kayaking"]


@pytest.mark.parametrize("reply, complexity, keywords", [
    ('{"complexity": 0, "keywords": ["Kayaking"]}', Complexity.SIMPLE, ["kayaking"]),
    ('{"complexity": 2.0, "keywords": ["beach"]}', Complexity.COMPLEX, ["beach"]),
    ('{"complexity": "1", "keywords": ["a", "b"]}', Complexity.HYBRID, ["a", "b"]),
    ('{"complexity": 2}', Complexity.COMPLEX, []),  # no keywords is an empty list
])
def test_plan_query_whole_number_complexity_is_read(reply, complexity, keywords):
    pipe = pipeline_for(MemoryTree(), chat=ScriptedChat({Purpose.PLAN: reply}))
    plan = pipe.plan_query("Where did Erin go kayaking last summer?")
    assert not plan.planner_fallback_used
    assert plan.complexity is complexity and plan.keywords == keywords


def test_plan_query_fallback_on_backend_error():
    class Boom:
        def chat_complete(self, req):
            raise RuntimeError("down")

    pipe = pipeline_for(MemoryTree(), chat=Boom())
    plan = pipe.plan_query("Where did Erin go?")
    assert plan.planner_fallback_used and plan.complexity is Complexity.HYBRID


def test_swallowed_provider_errors_are_logged(caplog):
    from timem.recall import CandidateSet

    class Boom:
        def chat_complete(self, req):
            raise TimeoutError("provider down")

    tree = build_fanout_tree(2, 1)
    pipe = pipeline_for(tree, chat=Boom())
    with caplog.at_level(logging.DEBUG, logger="timem.recall"):
        pipe.plan_query("Where did Erin go?")
        kept, fallback = pipe.gate_candidates(
            "q", Complexity.SIMPLE, CandidateSet(entries=candidates_from(tree, [1, 2])))
    assert fallback and len(kept) == 2
    messages = [(r.levelno, r.getMessage()) for r in caplog.records if r.name == "timem.recall"]
    assert messages == [(logging.DEBUG, "planner call failed: TimeoutError"),
                        (logging.DEBUG, "gate call failed: TimeoutError")]


def test_plan_query_rejects_empty(engine):
    with pytest.raises(ValueError):
        engine.pipeline.plan_query("   ")


# --- strategy budgets ---------------------------------------------------------------

def test_strategy_levels_tables():
    levels, budget = strategy_levels(Complexity.SIMPLE)
    assert levels == frozenset({Level.SEGMENT, Level.SESSION, Level.PROFILE})
    assert budget.caps == {Level.SEGMENT: 20, Level.SESSION: 4, Level.PROFILE: 1}

    levels, budget = strategy_levels(Complexity.HYBRID)
    assert levels == frozenset({Level.SEGMENT, Level.SESSION, Level.DAY, Level.PROFILE})
    assert budget.caps == {Level.SEGMENT: 20, Level.SESSION: 4, Level.DAY: 2, Level.PROFILE: 1}

    levels, budget = strategy_levels(Complexity.COMPLEX)
    assert levels == frozenset(Level)
    assert budget.caps == {Level.SEGMENT: 20, Level.SESSION: 8, Level.DAY: 4,
                           Level.WEEK: 2, Level.PROFILE: 1}


# --- ancestor propagation --------------------------------------------------------------

def build_fanout_tree(n_leaves: int = 25, n_parents: int = 10):
    """n_leaves segments distributed round-robin over n_parents sessions."""
    tree = MemoryTree()
    dim = 16
    for p in range(n_parents):
        tree.insert_node(MemoryNode(
            id=100 + p, user_id="u", level=Level.SESSION,
            interval=TemporalInterval(utc(2023, 5, 1 + p), utc(2023, 5, 1 + p, 23)),
            text=f"session {p}"))
    for i in sorted(range(n_leaves), key=lambda i: (i % n_parents, i)):  # in end order
        p = i % n_parents
        ts = utc(2023, 5, 1 + p, 1 + i // n_parents)
        tree.insert_node(MemoryNode(
            id=1 + i, user_id="u", level=Level.SEGMENT,
            interval=TemporalInterval(ts, ts),
            text=f"segment {i}", embedding=unit(dim, i)))
    for p in range(n_parents):
        tree.adopt("u", 100 + p, list(range(1 + p, 1 + n_leaves, n_parents)))
    return tree


def test_propagate_dedups_shared_parent():
    tree = build_fanout_tree(n_leaves=2, n_parents=1)
    pipe = pipeline_for(tree)
    leaves = [ScoredLeaf(1, 0.9, 0.0, 0.81), ScoredLeaf(2, 0.8, 0.0, 0.72)]
    cand = pipe.propagate_ancestors("u", leaves, Complexity.SIMPLE)
    session_entries = [c for c in cand.entries if c.node.level == Level.SESSION]
    assert len(session_entries) == 1
    assert session_entries[0].via_leaf == 1


def test_propagate_caps_match_bruteforce_oracle():
    tree = build_fanout_tree()
    pipe = pipeline_for(tree)
    rng = random.Random(99)
    fused = sorted((rng.random() for _ in range(25)), reverse=True)
    leaves = [ScoredLeaf(node_id=i + 1, s_sem=f, s_lex=0.0, fused=f)
              for i, f in zip(range(25), fused)]
    rng.shuffle(leaves)
    leaves.sort(key=lambda s: -s.fused)

    cand = pipe.propagate_ancestors("u", leaves, Complexity.SIMPLE)

    # oracle: walk leaves in score order, collect parents, cap at 4
    expected_sessions: list[int] = []
    for leaf in leaves:
        parent = tree.get("u", leaf.node_id).parent_id
        if parent not in expected_sessions:
            expected_sessions.append(parent)
        if len(expected_sessions) == 4:
            break
    got_sessions = [c.node.id for c in cand.entries if c.node.level == Level.SESSION]
    assert got_sessions == expected_sessions
    assert len([c for c in cand.entries if c.node.level == Level.SEGMENT]) == 20

    # seeded random caps of 0-3 per level on a full five-level tree
    engine = MemoryEngine()
    ingest_all(engine, "u", random_transcript(random.Random(12), "u", n_sessions=14))
    segments = engine.tree.nodes_at_level("u", Level.SEGMENT)
    profiles = engine.tree.nodes_at_level("u", Level.PROFILE)
    assert len(profiles) > 1
    for trial in range(40):
        caps = {lvl: rng.randint(0, 3) for lvl in Level}
        config = EngineConfig(caps=dict(
            DEFAULT_CAPS, **{f"cap_complex_l{int(lvl)}": cap for lvl, cap in caps.items()}))
        leaves = sorted((ScoredLeaf(n.id, 0.0, 0.0, rng.random()) for n in segments),
                        key=lambda s: -s.fused)
        pipe = RecallPipeline(engine.tree, MockChatBackend(), engine.embedder, config=config)
        cand = pipe.propagate_ancestors("u", leaves, Complexity.COMPLEX)

        # oracle: walk each kept leaf's whole parent chain in score order
        expected = [leaf.node_id for leaf in leaves[:caps[Level.SEGMENT]]]
        for leaf_id in list(expected):
            node = engine.tree.get("u", leaf_id)
            while node.parent_id is not None:
                node = engine.tree.get("u", node.parent_id)
                taken = sum(engine.tree.get("u", i).level == node.level for i in expected)
                if node.id not in expected and taken < caps[node.level]:
                    expected.append(node.id)
        if caps[Level.PROFILE] and not any(engine.tree.get("u", i).level == Level.PROFILE
                                           for i in expected):
            expected.append(max(profiles, key=lambda n: (n.interval.end, n.id)).id)
        assert [c.node.id for c in cand.entries] == expected, (trial, caps)
        for lvl in Level:
            assert sum(c.node.level == lvl for c in cand.entries) <= caps[lvl]
        assert any(c.node.level == Level.PROFILE for c in cand.entries) == (
            caps[Level.PROFILE] > 0)


def test_zero_caps_admit_nothing_and_inject_no_profile():
    caps = dict(DEFAULT_CAPS, cap_complex_l2=0, cap_complex_l4=0, cap_complex_l5=0)
    engine = MemoryEngine(config=EngineConfig(caps=caps))
    ingest_all(engine, "u", random_transcript(random.Random(12), "u", n_sessions=14))
    assert engine.tree.nodes_at_level("u", Level.PROFILE)
    result = engine.recall("u", "Where did I go kayaking?", gate=False,
                           complexity_override=Complexity.COMPLEX)
    levels = [m.level for m in result.memories]
    assert levels.count(1) == 20 and levels.count(3) == 4
    assert set(levels) == {1, 3}


def test_partial_caps_in_code_merge_over_the_defaults():
    """Caps set in code keep the default of every key they leave out, as
    a config file's caps do."""
    partial = EngineConfig(caps={"cap_simple_l1": 5})
    assert partial == EngineConfig.from_dict({"cap_simple_l1": 5})
    assert partial.caps == {**DEFAULT_CAPS, "cap_simple_l1": 5}
    transcript = random_transcript(random.Random(12), "u", n_sessions=14)
    recalled = []
    for config in (partial, EngineConfig()):
        engine = MemoryEngine(config=config)
        ingest_all(engine, "u", transcript)
        result = engine.recall("u", "Where did I go kayaking?", gate=False,
                               complexity_override=Complexity.COMPLEX)
        recalled.append([m.node_id for m in result.memories])
        assert {m.level for m in result.memories} == {1, 2, 3, 4, 5}
    assert recalled[0] == recalled[1]


def test_propagate_empty_leaves_injects_latest_profile():
    tree = MemoryTree()
    for i, month in enumerate((5, 6)):
        tree.insert_node(MemoryNode(
            id=1 + i, user_id="u", level=Level.PROFILE,
            interval=TemporalInterval(utc(2023, month, 1), utc(2023, month, 28)),
            text=f"profile {month}"))
    pipe = pipeline_for(tree)
    cand = pipe.propagate_ancestors("u", [], Complexity.SIMPLE)
    assert [c.node.id for c in cand.entries] == [2]  # latest profile only
    tree2 = MemoryTree()
    tree2.ensure_user("u")
    assert pipeline_for(tree2).propagate_ancestors("u", [], Complexity.SIMPLE).entries == []


def test_propagate_injects_the_latest_profile_that_existed_at_t_q():
    """The ids an engine hands out: May's profile (2) is made when June's
    first turn arrives, before that turn's segment (3), and June's (5)
    by a flush after the last segment (4). As of t_q a recall sees the
    nodes up to the last segment ending by t_q, and every node from the
    last segment on."""
    tree = MemoryTree()
    for node_id, level, start, end in (
            (1, Level.SEGMENT, utc(2023, 5, 10), utc(2023, 5, 10)),
            (2, Level.PROFILE, utc(2023, 5, 10), utc(2023, 5, 10)),
            (3, Level.SEGMENT, utc(2023, 6, 2), utc(2023, 6, 2)),
            (4, Level.SEGMENT, utc(2023, 6, 3), utc(2023, 6, 3)),
            (5, Level.PROFILE, utc(2023, 6, 2), utc(2023, 6, 3))):
        tree.insert_node(MemoryNode(
            id=node_id, user_id="u", level=level, interval=TemporalInterval(start, end),
            text=f"node {node_id}", embedding=unit(64, node_id) if level == 1 else None))
    pipe = pipeline_for(tree)
    for t_q, want in ((None, [5]), (utc(2023, 6, 4), [5]), (utc(2023, 6, 3), [5]),
                      (utc(2023, 6, 2, 23), [2]), (utc(2023, 6, 2), [2]),
                      (utc(2023, 6, 1), []),  # May's profile ends by t_q, but did not exist
                      (utc(2023, 5, 10), []), (utc(2023, 5, 9), [])):
        cand = pipe.propagate_ancestors("u", [], Complexity.SIMPLE, t_q)
        assert [c.node.id for c in cand.entries] == want, t_q


def test_propagate_forbidden_levels_never_appear(engine):
    ingest_all(engine, "alice", random_transcript(random.Random(31), "alice"))
    pool = engine.tree.nodes_at_level("alice", Level.SEGMENT)
    from timem.indexing import fused_top_k
    leaves = fused_top_k(engine.embedder.embed_text("kayaking lake"), ["kayaking"], pool, 0.9, 20)
    for complexity, forbidden in [
        (Complexity.SIMPLE, {Level.DAY, Level.WEEK}),
        (Complexity.HYBRID, {Level.WEEK}),
        (Complexity.COMPLEX, set()),
    ]:
        cand = engine.pipeline.propagate_ancestors("alice", leaves, complexity)
        present = {c.node.level for c in cand.entries}
        assert not (present & forbidden)


# --- gating -------------------------------------------------------------------------

def candidates_from(tree, ids) -> list[Candidate]:
    return [Candidate(node=tree.get("u", i)) for i in ids]


def test_gate_identity_and_full_rejection():
    tree = build_fanout_tree(4, 2)
    entries = candidates_from(tree, [1, 2, 3, 4])
    from timem.recall import CandidateSet
    cand = CandidateSet(entries=entries)

    pipe = pipeline_for(tree, chat=ScriptedChat(
        {Purpose.GATE: json.dumps({"relevant_ids": [1, 2, 3, 4]})}))
    kept, fallback = pipe.gate_candidates("q", Complexity.SIMPLE, cand)
    assert {c.node.id for c in kept} == {1, 2, 3, 4} and not fallback

    pipe = pipeline_for(tree, chat=ScriptedChat(
        {Purpose.GATE: json.dumps({"relevant_ids": []})}))
    kept, fallback = pipe.gate_candidates("q", Complexity.SIMPLE, cand)
    assert kept == [] and not fallback


def test_gate_fail_open_on_malformed():
    tree = build_fanout_tree(3, 1)
    from timem.recall import CandidateSet
    cand = CandidateSet(entries=candidates_from(tree, [1, 2, 3]))
    for reply in ("garbled", "[1, 2]", '"keep all"', "3"):  # not a JSON object
        pipe = pipeline_for(tree, chat=ScriptedChat({Purpose.GATE: reply}))
        kept, fallback = pipe.gate_candidates("q", Complexity.SIMPLE, cand)
        assert len(kept) == 3 and fallback, reply


def test_gate_ignores_out_of_range_ordinals():
    tree = build_fanout_tree(2, 1)
    from timem.recall import CandidateSet
    cand = CandidateSet(entries=candidates_from(tree, [1, 2]))
    pipe = pipeline_for(tree, chat=ScriptedChat(
        {Purpose.GATE: json.dumps({"relevant_ids": [0, 2, 7, "x"]})}))
    kept, _ = pipe.gate_candidates("q", Complexity.SIMPLE, cand)
    assert [c.node.id for c in kept] == [2]


def test_gate_ignores_ordinals_that_are_not_whole_numbers():
    tree = build_fanout_tree(3, 1)
    from timem.recall import CandidateSet
    cand = CandidateSet(entries=candidates_from(tree, [1, 2, 3]))
    for ids, kept_ids in (([True, 2.7, 3.0], [3]),
                          ([False, 1.5, "2.0", None, [1], {"id": 1}], []),
                          (["2", 1.0, float("inf")], [1, 2])):  # inf is sent as Infinity
        pipe = pipeline_for(tree, chat=ScriptedChat(
            {Purpose.GATE: '{"relevant_ids": [%s]}' % ", ".join(map(json.dumps, ids))}))
        kept, fallback = pipe.gate_candidates("q", Complexity.SIMPLE, cand)
        assert [c.node.id for c in kept] == kept_ids and not fallback, ids


def test_gate_empty_candidates_no_call():
    from timem.recall import CandidateSet
    chat = RecordingChat()
    pipe = pipeline_for(MemoryTree(), chat=chat)
    kept, fallback = pipe.gate_candidates("q", Complexity.SIMPLE, CandidateSet())
    assert kept == [] and not fallback and chat.calls == []


GATE_ROWS = [  # id, level, start, end, text
    (7, 1, "2023-05-20T23:50:00Z", "2023-05-20T23:50:00Z", "I went kayaking\nat Lake Verano."),
    (3, 1, "2023-05-20T09:00:00Z", "2023-05-20T09:00:00Z", "Erin works at the Old Copper Mill."),
    (9, 2, "2023-05-20T23:50:00Z", "2023-05-21T00:10:00Z", "A late kayaking session."),
    (11, 3, "2023-05-20T09:00:00Z", "2023-05-20T23:50:00Z", "Saturday: work talk, then kayaking."),
    (12, 4, "2023-05-15T08:00:00Z", "2023-05-21T00:10:00Z", "A week of work and water."),
    (13, 5, "2023-05-01T08:00:00Z", "2023-05-21T00:10:00Z", "Alice likes kayaking."),
]

GATE_PROMPT = """Filter memories for simple fact query (Complexity 0).

Strategy: Aggressive filtering - Keep only direct answers
Target: 3-8 memories

## Filtering Rules
1. KEEP if memory directly answers the question
2. KEEP if memory provides essential context (time/location of the fact)
3. EXCLUDE if related but does not contribute to answer
4. EXCLUDE if different topic entirely

## Instructions
- Be strict: Only keep memories that help answer the specific question
- Remove noise: Exclude tangentially related memories
- Aim for 3-8 memories total

Question: Where did Alice go kayaking?
Candidate memories (6 total):
1. [L1 | 2023-05-20T09:00:00Z to 2023-05-20T09:00:00Z] Erin works at the Old Copper Mill.
2. [L1 | 2023-05-20T23:50:00Z to 2023-05-20T23:50:00Z] I went kayaking at Lake Verano.
3. [L2 | 2023-05-20T23:50:00Z to 2023-05-21T00:10:00Z] A late kayaking session.
4. [L3 | 2023-05-20T09:00:00Z to 2023-05-20T23:50:00Z] Saturday: work talk, then kayaking.
5. [L4 | 2023-05-15T08:00:00Z to 2023-05-21T00:10:00Z] A week of work and water.
6. [L5 | 2023-05-01T08:00:00Z to 2023-05-21T00:10:00Z] Alice likes kayaking.

Return IDs to keep (JSON format):
{"relevant_ids": [1, 2, 3, ...]}
"""


def test_gate_prompt_bytes_are_pinned():
    """Lines in (level, id) order, each interval as "<start> to <end>" in
    UTC, a text's newline as a space."""
    from timem.recall import CandidateSet
    entries = [Candidate(node=MemoryNode(
        id=i, user_id="u", level=Level(level), text=text, embedding=None,
        interval=TemporalInterval(parse_ts(start), parse_ts(end))))
        for i, level, start, end, text in GATE_ROWS]
    chat = RecordingChat()
    pipeline_for(MemoryTree(), chat=chat).gate_candidates(
        "Where did Alice go kayaking?", Complexity.SIMPLE, CandidateSet(entries=entries))
    assert [req.prompt for req in chat.calls] == [GATE_PROMPT]


def test_a_repeated_recall_formats_no_timestamp(monkeypatch):
    engine = MemoryEngine(chat=RecordingChat())
    ingest_all(engine, "alice", random_transcript(random.Random(5), "alice"))
    query = "Where did Alice go kayaking?"
    first = engine.recall("alice", query)
    calls = []

    def counting_format_ts(dt):
        calls.append(dt)
        return format_ts(dt)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("timem") and hasattr(module, "format_ts"):
            monkeypatch.setattr(module, "format_ts", counting_format_ts)
    again = engine.recall("alice", query)
    assert [m.node_id for m in again.memories] == [m.node_id for m in first.memories]
    gates = [req for req in engine.chat.calls if req.purpose is Purpose.GATE]
    assert len(gates) == 2 and gates[0].prompt == gates[1].prompt
    assert first.counts["candidates"] > 0 and calls == []


# --- final ranking -----------------------------------------------------------------------

def mem(tree, node_id, level, day, user="u"):
    node = MemoryNode(
        id=node_id, user_id=user, level=Level(level),
        interval=TemporalInterval(utc(2023, 5, day), utc(2023, 5, day)),
        text=f"m{node_id}",
        embedding=unit(8, node_id) if level == Level.SEGMENT else None)
    tree.insert_node(node)
    return Candidate(node=node)


def test_rank_final_level_then_proximity():
    tree = MemoryTree()
    l2 = mem(tree, 1, 2, 10)
    l1_old = mem(tree, 2, 1, 3)
    l1_recent = mem(tree, 3, 1, 9)
    ranked = rank_final([l2, l1_old, l1_recent], utc(2023, 5, 10))
    assert [c.node.id for c in ranked] == [3, 2, 1]


def test_rank_final_singleton_and_tie_by_id():
    tree = MemoryTree()
    before = mem(tree, 2, 1, 4)   # one day before t_q
    only = mem(tree, 1, 1, 5)
    after = mem(tree, 3, 1, 6)    # one day after t_q
    assert rank_final([only], utc(2023, 5, 6)) == [only]
    ranked = rank_final([after, before], utc(2023, 5, 5))
    assert [c.node.id for c in ranked] == [2, 3]


def test_rank_final_is_permutation():
    tree = MemoryTree()
    entries = [mem(tree, i, 1 + (i % 3), 1 + i) for i in range(1, 10)]
    ranked = rank_final(entries, utc(2023, 5, 20))
    assert sorted(c.node.id for c in ranked) == list(range(1, 10))


# --- full recall -------------------------------------------------------------------------

def test_recall_empty_tree(engine):
    engine.tree.ensure_user("alice")
    result = engine.recall("alice", "Where did Alice go kayaking?")
    assert result.memories == []
    assert result.counts == {"leaves": 0, "candidates": 0, "retained": 0}
    assert result.context_token_count == 0


def test_recall_unknown_user(engine):
    with pytest.raises(UnknownUser):
        engine.recall("nobody", "Where?")


def test_a_failed_query_embedding_is_a_backend_failure():
    """The query's embedding fails as consolidation's do: a custom
    embedder's own exception reaches the caller as `BackendFailure`."""
    class DroppingEmbedder(MockEmbedder):
        down = False

        def embed_text(self, text):
            if self.down:
                raise ConnectionError("embedding provider unreachable")
            return super().embed_text(text)

    embedder = DroppingEmbedder(64)
    engine = MemoryEngine(config=EngineConfig(embedding_dim=64), embedder=embedder)
    ingest_all(engine, "alice", random_transcript(random.Random(41), "alice", n_sessions=3))
    embedder.down = True
    with pytest.raises(BackendFailure, match="unreachable") as info:
        engine.recall("alice", "Where did Alice go kayaking?")
    assert isinstance(info.value.__cause__, ConnectionError)
    embedder.down = False
    assert engine.recall("alice", "Where did Alice go kayaking?").memories


def test_recall_exactly_two_chat_calls():
    engine = MemoryEngine(chat=RecordingChat())
    ingest_all(engine, "alice", random_transcript(random.Random(41), "alice", n_sessions=3))
    engine.chat.calls.clear()
    engine.recall("alice", "Where did Alice go kayaking?")
    purposes = [c.purpose for c in engine.chat.calls]
    assert purposes == [Purpose.PLAN, Purpose.GATE]


def test_recall_gating_reduces_tokens(engine):
    ingest_all(engine, "alice", random_transcript(random.Random(43), "alice"))
    gated = engine.recall("alice", "Where did Alice go kayaking?", gate=True)
    ungated = engine.recall("alice", "Where did Alice go kayaking?", gate=False)
    assert gated.context_token_count <= ungated.context_token_count
    assert set(m.node_id for m in gated.memories) <= set(m.node_id for m in ungated.memories)


def test_recall_temporal_filter(engine):
    turns = random_transcript(random.Random(47), "alice", n_sessions=4)
    ingest_all(engine, "alice", turns)
    cutoff = turns[len(turns) // 2].timestamp
    result = engine.recall("alice", "Where did Alice go kayaking?", t_q=cutoff, gate=False)
    for m in result.memories:
        if m.level == 1:
            assert m.interval.end <= cutoff


def test_as_of_recall_returns_nothing_ending_after_t_q(engine):
    """Asked at a turn's own time, a recall sees only memories whose turns
    had all happened: no ancestor or profile that ends later."""
    turns = random_transcript(random.Random(7), "alice", n_sessions=12)
    ingest_all(engine, "alice", turns)
    later = ancestors = 0
    for turn in turns[::7]:
        t_q = turn.timestamp
        result = engine.recall("alice", "Where did Alice go kayaking at Lake Verano?",
                               t_q=t_q, gate=False, complexity_override=Complexity.COMPLEX)
        assert [m.node_id for m in result.memories if m.interval.end > t_q] == [], t_q
        ancestors += any(m.level > 1 for m in result.memories)
        later += any(n.interval.end > t_q for n in engine.tree.all_nodes("alice") if n.level > 1)
    # the tree does hold memories ending after most of these t_q, and
    # the recalls still reach ancestors that end before it
    assert later > 5 and ancestors > 5


AS_OF_QUERIES = ["Where did Alice go kayaking at Lake Verano?",
                 "What activities did Alice take part in?",
                 "Would Alice enjoy a pottery retreat?"]


@settings(max_examples=12, deadline=timedelta(seconds=20))
@given(seed=st.integers(0, 2**16),
       instants=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**12)),
                         min_size=1, max_size=4))
def test_as_of_recall_equals_recall_on_the_engine_that_stopped_at_t_q(seed, instants):
    """Recall as of an instant between two turns, on an engine that
    ingested and flushed the whole transcript, gives the memories, scores
    and order that recall gives on an engine that ingested only the turns
    up to that instant: with the gate on and off, planned and forced
    complex, live and after a replay of the log."""
    turns = random_transcript(random.Random(seed), "alice", n_sessions=5)
    with tempfile.TemporaryDirectory() as tmp, LogStore(tmp) as store:
        full = MemoryEngine(store=store)
        ingest_all(full, "alice", turns)
        replayed = MemoryEngine(store=store)
        replayed.load_user("alice")
        prefix = MemoryEngine()
        ingested = 0
        for i, offset in sorted((place % (len(turns) - 1), offset)
                                for place, offset in instants):
            gap = (turns[i + 1].timestamp - turns[i].timestamp) // timedelta(microseconds=1)
            t_q = turns[i].timestamp + timedelta(microseconds=offset % gap)  # before turn i + 1
            for turn in turns[ingested:i + 1]:
                prefix.ingest_turn("alice", turn)
            ingested = max(ingested, i + 1)
            for query, gate, complexity in itertools.product(
                    AS_OF_QUERIES, (True, False), (None, Complexity.COMPLEX)):
                want = prefix.recall("alice", query, t_q=t_q, gate=gate,
                                     complexity_override=complexity)
                for engine in (full, replayed):
                    got = engine.recall("alice", query, t_q=t_q, gate=gate,
                                        complexity_override=complexity)
                    assert (got.memories, got.counts) == (want.memories, want.counts), (
                        seed, t_q, query, gate, complexity)


def test_recall_deterministic(engine):
    ingest_all(engine, "alice", random_transcript(random.Random(53), "alice"))
    a = engine.recall("alice", "Would Alice enjoy a pottery retreat?")
    b = engine.recall("alice", "Would Alice enjoy a pottery retreat?")
    assert [m.node_id for m in a.memories] == [m.node_id for m in b.memories]
    assert a.context_token_count == b.context_token_count


def test_recall_complexity_override(engine):
    ingest_all(engine, "alice", random_transcript(random.Random(59), "alice"))
    result = engine.recall("alice", "Where did Alice go kayaking?",
                           complexity_override=Complexity.COMPLEX)
    assert result.plan.complexity is Complexity.COMPLEX


def test_recall_result_ordering_law(engine):
    ingest_all(engine, "alice", random_transcript(random.Random(61), "alice"))
    result = engine.recall("alice", "What activities did Alice take part in?")
    keys = [(m.level, abs(result.query_time - m.interval.end), m.node_id)
            for m in result.memories]
    assert keys == sorted(keys)


def test_recall_keeps_leaf_channel_scores(engine):
    from timem.indexing import fused_top_k

    ingest_all(engine, "alice", random_transcript(random.Random(67), "alice"))
    query = "Where did Alice go kayaking?"
    result = engine.recall("alice", query, gate=False)
    plan = engine.pipeline.plan_query(query)
    scored = {s.node_id: s for s in fused_top_k(
        engine.embedder.embed_text(query), plan.keywords,
        engine.tree.nodes_at_level("alice", Level.SEGMENT))}
    assert any(m.level > 1 for m in result.memories)
    for m in result.memories:
        if m.level == 1:
            leaf = scored[m.node_id]
            assert (m.s_sem, m.s_lex, m.fused) == (leaf.s_sem, leaf.s_lex, leaf.fused)
        else:
            assert m.s_sem is None and m.s_lex is None


@pytest.mark.parametrize("cut", [None, 1 / 3, 2 / 3])
def test_recall_scores_leaves_through_one_fused_top_k_call(engine, monkeypatch, cut):
    """The hook the benchmark's tracer wraps: `timem.recall.fused_top_k`,
    called once per recall with the leaves ending by t_q as its third
    positional argument."""
    import timem.recall

    turns = random_transcript(random.Random(71), "alice", n_sessions=6)
    ingest_all(engine, "alice", turns)
    t_q = None if cut is None else turns[int(len(turns) * cut)].timestamp
    calls = []
    original = timem.recall.fused_top_k

    def spy(*args, **kwargs):
        calls.append(len(args[2]))
        return original(*args, **kwargs)

    monkeypatch.setattr(timem.recall, "fused_top_k", spy)
    engine.recall("alice", "Where did Alice go kayaking?", t_q=t_q)
    segments = engine.tree.nodes_at_level("alice", Level.SEGMENT)
    assert calls == [sum(1 for n in segments if t_q is None or n.interval.end <= t_q)]
