from __future__ import annotations

import random

import pytest

from timem import Level, MemoryEngine
from timem.backends import FlakyChatBackend
from timem.consolidation import TemporalGroup
from timem.errors import BackendFailure, NonMonotonicTimestamp
from timem.timeutil import parse_ts, utc
from timem.tree import TemporalInterval

from conftest import ingest_all, make_turns, random_transcript


def turn_row(session: str, ts: str, text: str = "I went kayaking at Lake Verano."):
    return (session, ts, text, f"Sounds great: {text}")


def test_first_turn_creates_single_segment(engine):
    turns = make_turns([turn_row("s1", "2023-05-20T09:00:00Z")])
    created = engine.ingest_turn("alice", turns[0])
    assert len(created) == 1
    assert created[0].level == Level.SEGMENT
    assert created[0].source_turn_ids == ["s1/0"]


def test_segment_keeps_text_that_looks_like_prompt_headings(engine):
    turn = make_turns([("s1", "2023-05-20T09:00:00Z",
                        "I met Omar at the harbour.\nCurrent conversation: we talked boats.\n"
                        "Question: should I buy one?",
                        "That sounds fun.")])[0]
    [segment] = engine.ingest_turn("alice", turn)
    assert segment.text == ("The user met Omar at the harbour. "
                            "Current conversation: they talked boats. "
                            "Question: should the user buy one? That sounds fun.")


def test_session_change_closes_previous_session(engine):
    rows = [
        turn_row("s1", "2023-05-20T09:00:00Z", "I went kayaking at Lake Verano."),
        turn_row("s1", "2023-05-20T09:05:00Z", "I cooked paella for dinner."),
        turn_row("s1", "2023-05-20T09:10:00Z", "I practiced the cello today."),
        turn_row("s2", "2023-05-20T15:00:00Z", "I am planning a trip to Osaka."),
    ]
    turns = make_turns(rows)
    for turn in turns[:3]:
        created = engine.ingest_turn("alice", turn)
        assert [int(n.level) for n in created] == [1]
    created = engine.ingest_turn("alice", turns[3])
    assert [int(n.level) for n in created] == [2, 1]
    session_node = created[0]
    assert session_node.child_ids == [1, 2, 3]
    assert session_node.interval == TemporalInterval(
        parse_ts("2023-05-20T09:00:00Z"), parse_ts("2023-05-20T09:10:00Z"))


def test_boundary_cascade_golden_trace(engine):
    """2023-12-31 (Sun, W52, Dec) -> 2024-01-01 (Mon, W1, Jan): one ingest
    crosses a session, day, week, and month boundary simultaneously."""
    turns = make_turns([
        turn_row("a", "2023-12-31T09:00:00Z", "I went stargazing at Fernwhistle Park."),
        turn_row("a", "2023-12-31T09:10:00Z", "I cooked goulash for dinner."),
        turn_row("b", "2024-01-01T09:00:00Z", "I started learning the marimba."),
    ])
    assert [int(n.level) for n in engine.ingest_turn("alice", turns[0])] == [1]
    assert [int(n.level) for n in engine.ingest_turn("alice", turns[1])] == [1]
    cascade = engine.ingest_turn("alice", turns[2])
    assert [(n.id, int(n.level)) for n in cascade] == [
        (3, 2), (4, 3), (5, 4), (6, 5), (7, 1)]
    # every closure node covers exactly the December session
    december = TemporalInterval(parse_ts("2023-12-31T09:00:00Z"),
                                parse_ts("2023-12-31T09:10:00Z"))
    for node in cascade[:4]:
        assert node.interval == december
    trailing = engine.flush("alice")
    assert [(n.id, int(n.level)) for n in trailing] == [
        (8, 2), (9, 3), (10, 4), (11, 5)]
    assert engine.flush("alice") == []
    assert engine.validate("alice").violations == []


def test_collect_children_returns_members(engine):
    turns = make_turns([
        turn_row("s1", "2023-05-20T09:00:00Z"),
        turn_row("s1", "2023-05-20T09:05:00Z"),
        turn_row("s1", "2023-05-20T09:10:00Z"),
        turn_row("s2", "2023-05-20T15:00:00Z"),
    ])
    ingest_all(engine, "alice", turns, flush=False)
    # members recorded out of order; the 09:05 segment (id 2) is no member
    group = TemporalGroup(level=Level.SESSION, key="m",
                          anchor=parse_ts("2023-05-20T09:00:00Z"), member_ids=[5, 3, 1])
    children = engine.consolidator.collect_children("alice", group)
    assert [n.id for n in children] == [1, 3, 5]
    empty = TemporalGroup(level=Level.SESSION, key="e", anchor=parse_ts("2023-01-01T00:00:00Z"))
    assert engine.consolidator.collect_children("alice", empty) == []


def test_day_group_collects_both_sessions(engine):
    turns = make_turns([
        turn_row("s1", "2023-05-20T09:00:00Z"),
        turn_row("s2", "2023-05-20T15:00:00Z"),
        turn_row("s3", "2023-05-22T10:00:00Z"),
    ])
    ingest_all(engine, "alice", turns, flush=False)
    day_nodes = engine.tree.nodes_at_level("alice", Level.DAY)
    assert len(day_nodes) == 1
    assert len(day_nodes[0].child_ids) == 2  # both May 20 sessions


def test_history_window_contract(engine):
    assert engine.consolidator.history_window("alice", Level.SESSION, 3) == []
    rows = [turn_row(f"s{i}", f"2023-05-{20 + i:02d}T09:00:00Z") for i in range(5)]
    rows.append(turn_row("s9", "2023-05-28T09:00:00Z"))
    ingest_all(engine, "alice", make_turns(rows), flush=False)
    sessions = engine.tree.nodes_at_level("alice", Level.SESSION)
    assert len(sessions) == 5
    recent = engine.consolidator.history_window("alice", Level.SESSION, 3)
    ends = [n.interval.end for n in recent]
    assert ends == sorted(ends, reverse=True) and len(recent) == 3
    assert recent[0].interval.end == sessions[-1].interval.end
    assert len(engine.consolidator.history_window("alice", Level.SESSION, 9)) == 5
    with pytest.raises(ValueError):
        engine.consolidator.history_window("alice", Level.SESSION, -1)


def test_consolidate_group_requires_closed_and_skips_empty(engine):
    engine.ensure_user("alice")
    group = TemporalGroup(level=Level.SESSION, key="g", anchor=utc(2023, 5, 1))
    with pytest.raises(ValueError):
        engine.consolidator.consolidate_group("alice", group)
    group.open = False
    assert engine.consolidator.consolidate_group("alice", group) is None


def test_month_close_over_four_weeks(engine):
    # four sessions in four distinct ISO weeks of June 2023
    rows = [turn_row(f"s{i}", ts) for i, ts in enumerate([
        "2023-06-02T09:00:00Z", "2023-06-07T09:00:00Z",
        "2023-06-14T09:00:00Z", "2023-06-21T09:00:00Z"])]
    ingest_all(engine, "alice", make_turns(rows))
    profiles = engine.tree.nodes_at_level("alice", Level.PROFILE)
    assert len(profiles) == 1
    assert len(profiles[0].child_ids) == 4
    assert {int(engine.tree.get("alice", c).level) for c in profiles[0].child_ids} == {4}


def test_flush_closes_open_session_chain(engine):
    engine.ingest_turn("alice", make_turns([turn_row("s1", "2023-05-20T09:00:00Z")])[0])
    created = engine.flush("alice")
    assert [int(n.level) for n in created] == [2, 3, 4, 5]
    assert engine.flush("alice") == []


def test_straddling_session_containment(engine):
    turns = make_turns([
        turn_row("s1", "2023-05-20T23:50:00Z"),
        turn_row("s1", "2023-05-21T00:10:00Z"),
        turn_row("s2", "2023-05-21T10:00:00Z"),
    ])
    ingest_all(engine, "alice", turns)
    report = engine.validate("alice")
    assert report.violations == []
    sessions = engine.tree.nodes_at_level("alice", Level.SESSION)
    assert sessions[0].interval == TemporalInterval(
        parse_ts("2023-05-20T23:50:00Z"), parse_ts("2023-05-21T00:10:00Z"))
    # the straddling session is assigned to the day it started on
    parent = engine.tree.get("alice", sessions[0].parent_id)
    assert parent.interval.start.day == 20


def test_week_straddling_month_boundary(engine):
    """ISO week 2024-W05 spans Jan 29 - Feb 4; the January profile must
    wait for that week to close even though February has begun."""
    turns = make_turns([
        turn_row("s1", "2024-01-30T09:00:00Z"),
        turn_row("s2", "2024-02-02T09:00:00Z"),   # same ISO week, next month
        turn_row("s3", "2024-02-06T09:00:00Z"),   # next ISO week
    ])
    engine.ingest_turn("alice", turns[0])
    mid = engine.ingest_turn("alice", turns[1])
    # no L4/L5 yet: the week is still open, so January cannot close
    assert [int(n.level) for n in mid] == [2, 3, 1]
    late = engine.ingest_turn("alice", turns[2])
    assert [int(n.level) for n in late] == [2, 3, 4, 5, 1]
    engine.flush("alice")
    assert engine.validate("alice").violations == []
    profiles = engine.tree.nodes_at_level("alice", Level.PROFILE)
    assert len(profiles) == 2  # one per month key
    jan = profiles[0]
    # the straddling week (anchored Jan 30) consolidates under January
    assert jan.interval.start == parse_ts("2024-01-30T09:00:00Z")
    assert jan.interval.end == parse_ts("2024-02-02T09:00:00Z")


def test_non_monotonic_timestamp_rejected(engine):
    turns = make_turns([
        turn_row("s1", "2023-05-20T09:00:00Z"),
        turn_row("s1", "2023-05-20T08:00:00Z"),
    ])
    engine.ingest_turn("alice", turns[0])
    with pytest.raises(NonMonotonicTimestamp):
        engine.ingest_turn("alice", turns[1])
    # equal timestamps are allowed
    again = make_turns([turn_row("s1", "2023-05-20T09:00:00Z")])[0]
    assert engine.ingest_turn("alice", again)


def test_segment_history_deduplicates_repeats(engine):
    rows = [turn_row("s1", f"2023-05-20T09:0{i}:00Z") for i in range(3)]
    turns = make_turns(rows)
    first = engine.ingest_turn("alice", turns[0])[0]
    second = engine.ingest_turn("alice", turns[1])[0]
    assert first.text != second.text  # repeats are suppressed by history
    assert second.text == "The exchange added no new substantive facts."


def test_every_segment_has_one_source_turn(engine):
    ingest_all(engine, "alice", random_transcript(random.Random(13), "alice", n_sessions=4))
    for node in engine.tree.nodes_at_level("alice", Level.SEGMENT):
        assert len(node.source_turn_ids) == 1


def test_one_node_per_group_key(engine):
    ingest_all(engine, "alice", random_transcript(random.Random(17), "alice"))
    for level, key_attr in ((Level.SESSION, None),):
        nodes = engine.tree.nodes_at_level("alice", level)
        child_sets = [frozenset(n.child_ids) for n in nodes]
        assert len(child_sets) == len(set(child_sets))
    # every non-segment node's children are disjoint
    seen: set[int] = set()
    for level in (Level.SESSION, Level.DAY, Level.WEEK, Level.PROFILE):
        for node in engine.tree.nodes_at_level("alice", level):
            for child in node.child_ids:
                assert child not in seen
                seen.add(child)


def test_backend_failure_is_retriable():
    engine = MemoryEngine(chat=FlakyChatBackend(failures=1))
    turn = make_turns([turn_row("s1", "2023-05-20T09:00:00Z")])[0]
    with pytest.raises(BackendFailure):
        engine.ingest_turn("alice", turn)
    assert engine.tree.nodes_at_level("alice", Level.SEGMENT) == []
    created = engine.ingest_turn("alice", turn)  # retry of the same turn
    assert [int(n.level) for n in created] == [1]


def test_backend_failure_during_closure_keeps_group_pending():
    # fail exactly when the session-close consolidation runs (the 4th call:
    # 3 segment calls succeed, then the L2 consolidation fails)
    engine = MemoryEngine(chat=FlakyChatBackend(failures=0))
    turns = make_turns([
        turn_row("s1", "2023-05-20T09:00:00Z"),
        turn_row("s1", "2023-05-20T09:05:00Z"),
        turn_row("s2", "2023-05-20T15:00:00Z"),
    ])
    engine.ingest_turn("alice", turns[0])
    engine.ingest_turn("alice", turns[1])
    engine.chat.remaining_failures = 1
    with pytest.raises(BackendFailure):
        engine.ingest_turn("alice", turns[2])
    assert engine.tree.nodes_at_level("alice", Level.SESSION) == []
    created = engine.ingest_turn("alice", turns[2])
    assert [int(n.level) for n in created] == [2, 1]
    assert engine.validate("alice").violations == []


def test_embedder_failure_is_backend_failure():
    class BadEmbedder:
        dimension = 8

        def embed_text(self, text):
            raise RuntimeError("embedder down")

    engine = MemoryEngine(embedder=BadEmbedder())
    turn = make_turns([turn_row("s1", "2023-05-20T09:00:00Z")])[0]
    with pytest.raises(BackendFailure):
        engine.ingest_turn("alice", turn)
    assert engine.tree.nodes_at_level("alice", Level.SEGMENT) == []


def test_same_transcript_twice_identical(config):
    turns = random_transcript(random.Random(23), "alice")
    first = MemoryEngine(config=config)
    second = MemoryEngine(config=config)
    ingest_all(first, "alice", turns)
    ingest_all(second, "alice", turns)
    a = first.tree.all_nodes("alice")
    b = second.tree.all_nodes("alice")
    assert [(n.id, int(n.level), n.text) for n in a] == [(n.id, int(n.level), n.text) for n in b]
