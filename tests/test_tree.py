from __future__ import annotations

import random

import numpy as np
import pytest

from timem import Level, MemoryNode, MemoryTree, TemporalInterval
from timem.errors import (
    ContainmentViolation,
    DuplicateId,
    LevelEdgeViolation,
    MissingParent,
    UnknownNode,
)
from timem.timeutil import utc

from conftest import ingest_all, random_transcript


def unit_vec(dim: int = 8, index: int = 0) -> np.ndarray:
    v = np.zeros(dim)
    v[index] = 1.0
    return v


def node(tree: MemoryTree, node_id: int, level: int, start, end,
         parent_id=None, user="u") -> MemoryNode:
    return MemoryNode(
        id=node_id, user_id=user, level=Level(level),
        interval=TemporalInterval(start, end),
        text=f"node {node_id}", embedding=unit_vec(), parent_id=parent_id)


def test_interval_rejects_reversed():
    with pytest.raises(ValueError):
        TemporalInterval(utc(2023, 5, 2), utc(2023, 5, 1))


def test_insert_child_under_parent():
    tree = MemoryTree()
    tree.insert_node(node(tree, 1, 2, utc(2023, 5, 1, 10), utc(2023, 5, 1, 11)))
    nid = tree.insert_node(node(tree, 2, 1, utc(2023, 5, 1, 10), utc(2023, 5, 1, 10, 1), parent_id=1))
    assert nid == 2
    assert tree.get("u", 1).child_ids == [2]


def test_insert_level_edge_violation():
    tree = MemoryTree()
    tree.insert_node(node(tree, 1, 3, utc(2023, 5, 1), utc(2023, 5, 2)))
    with pytest.raises(LevelEdgeViolation):
        tree.insert_node(node(tree, 2, 1, utc(2023, 5, 1, 10), utc(2023, 5, 1, 11), parent_id=1))


def test_insert_containment_violation():
    tree = MemoryTree()
    tree.insert_node(node(tree, 1, 2, utc(2023, 5, 1, 10), utc(2023, 5, 1, 11)))
    with pytest.raises(ContainmentViolation):
        tree.insert_node(node(tree, 2, 1, utc(2023, 5, 1, 9), utc(2023, 5, 1, 9, 1), parent_id=1))


def test_insert_duplicate_and_missing_parent():
    tree = MemoryTree()
    tree.insert_node(node(tree, 1, 1, utc(2023, 5, 1), utc(2023, 5, 1)))
    with pytest.raises(DuplicateId):
        tree.insert_node(node(tree, 1, 1, utc(2023, 5, 2), utc(2023, 5, 2)))
    with pytest.raises(MissingParent):
        tree.insert_node(node(tree, 2, 1, utc(2023, 5, 1), utc(2023, 5, 1), parent_id=99))


def test_insert_rejects_non_unit_embedding():
    tree = MemoryTree()
    bad = node(tree, 1, 1, utc(2023, 5, 1), utc(2023, 5, 1))
    bad.embedding = np.ones(4)
    with pytest.raises(ValueError):
        tree.insert_node(bad)


def test_insert_rejects_nan_embedding():
    tree = MemoryTree()
    bad = node(tree, 1, 1, utc(2023, 5, 1), utc(2023, 5, 1))
    bad.embedding = unit_vec()
    bad.embedding[3] = np.nan
    with pytest.raises(ValueError, match="nan"):
        tree.insert_node(bad)
    assert tree.nodes_at_level("u", Level.SEGMENT) == []


def test_nodes_at_level_empty_and_sorted():
    tree = MemoryTree()
    tree.ensure_user("u")
    assert tree.nodes_at_level("u", Level.SEGMENT) == []
    for i, minute in [(1, 1), (2, 3), (3, 2)]:
        tree.insert_node(node(tree, i, 1, utc(2023, 5, 1, 10, minute), utc(2023, 5, 1, 10, minute)))
    ends = [n.interval.end.minute for n in tree.nodes_at_level("u", Level.SEGMENT)]
    assert ends == [1, 2, 3]
    assert tree.nodes_at_level("u", Level.PROFILE) == []


def test_child_ids_ordered_by_start_then_id():
    tree = MemoryTree()
    tree.insert_node(node(tree, 10, 2, utc(2023, 5, 1, 8), utc(2023, 5, 1, 12)))
    tree.insert_node(node(tree, 11, 1, utc(2023, 5, 1, 11), utc(2023, 5, 1, 11), parent_id=10))
    tree.insert_node(node(tree, 12, 1, utc(2023, 5, 1, 9), utc(2023, 5, 1, 9), parent_id=10))
    tree.insert_node(node(tree, 13, 1, utc(2023, 5, 1, 9), utc(2023, 5, 1, 9), parent_id=10))
    assert tree.get("u", 10).child_ids == [12, 13, 11]


def test_ancestors_full_chain():
    tree = MemoryTree()
    for lvl in range(5, 0, -1):
        tree.insert_node(node(tree, lvl, lvl, utc(2023, 5, 1), utc(2023, 6, 1),
                              parent_id=lvl + 1 if lvl < 5 else None))
    got = tree.ancestors("u", 1, {Level.SESSION, Level.PROFILE})
    assert [int(n.level) for n in got] == [2, 5]
    assert tree.ancestors("u", 1, set(Level)) == tree.ancestors("u", 1, set(Level))
    assert len(tree.ancestors("u", 1, set(Level))) == 4


def test_ancestors_orphan_and_partial():
    tree = MemoryTree()
    tree.insert_node(node(tree, 3, 3, utc(2023, 5, 1), utc(2023, 5, 2)))
    tree.insert_node(node(tree, 2, 2, utc(2023, 5, 1, 10), utc(2023, 5, 1, 11), parent_id=3))
    tree.insert_node(node(tree, 1, 1, utc(2023, 5, 1, 10), utc(2023, 5, 1, 10), parent_id=2))
    tree.insert_node(node(tree, 9, 1, utc(2023, 5, 2), utc(2023, 5, 2)))
    assert tree.ancestors("u", 9, {Level.SESSION, Level.DAY, Level.WEEK, Level.PROFILE}) == []
    got = tree.ancestors("u", 1, {Level.DAY, Level.WEEK})
    assert [n.id for n in got] == [3]


def test_ancestors_unknown_node():
    tree = MemoryTree()
    tree.ensure_user("u")
    with pytest.raises(UnknownNode):
        tree.ancestors("u", 404, {Level.SESSION})


def test_validate_empty_tree():
    tree = MemoryTree()
    tree.ensure_user("u")
    report = tree.validate_tree("u")
    assert report.violations == []
    assert all(c == 0 for c in report.node_count_per_level.values())


def test_validate_flags_progressive_consolidation():
    tree = MemoryTree()
    tree.insert_node(node(tree, 1, 1, utc(2023, 5, 1, 10), utc(2023, 5, 1, 10)))
    tree.insert_node(node(tree, 2, 2, utc(2023, 5, 1), utc(2023, 5, 1, 12)))
    tree.insert_node(node(tree, 3, 2, utc(2023, 5, 1, 13), utc(2023, 5, 1, 14)))
    report = tree.validate_tree("u")
    assert any(v.rule == "progressive-consolidation" and "level 2" in v.detail
               for v in report.violations)


def test_validate_clean_after_random_ingest(engine):
    rng = random.Random(7)
    turns = random_transcript(rng, "alice")
    ingest_all(engine, "alice", turns)
    report = engine.validate("alice")
    assert report.violations == []


def test_per_user_isolation(engine):
    rng = random.Random(3)
    ingest_all(engine, "alice", random_transcript(rng, "alice", n_sessions=2))
    assert engine.tree.nodes_at_level("bob", Level.SEGMENT) == []
    # ids restart per user
    ingest_all(engine, "bob", random_transcript(random.Random(4), "bob", n_sessions=1))
    assert engine.tree.get("bob", 1).user_id == "bob"


def test_parallel_users_and_readers(engine):
    import threading

    users = [f"u{i}" for i in range(4)]
    errors = []

    def ingest(user, seed):
        try:
            ingest_all(engine, user, random_transcript(random.Random(seed), user, n_sessions=3))
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=ingest, args=(u, 100 + i))
               for i, u in enumerate(users)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    for user in users:
        assert engine.validate(user).violations == []

    results = {}

    def read(user):
        results[user] = engine.recall(user, "Where did they go kayaking?").counts

    readers = [threading.Thread(target=read, args=(u,)) for u in users for _ in range(2)]
    for t in readers:
        t.start()
    for t in readers:
        t.join()
    assert set(results) == set(users)


def test_insert_roundtrip_appears_once(engine):
    rng = random.Random(11)
    turns = random_transcript(rng, "alice", n_sessions=3)
    ingest_all(engine, "alice", turns)
    seen: set[int] = set()
    for level in Level:
        for n in engine.tree.nodes_at_level("alice", level):
            assert n.id not in seen
            seen.add(n.id)
    assert len(seen) == len(engine.tree.all_nodes("alice"))


# --- level lists and the leaf index ----------------------------------------------

def end_order(nodes):
    return [(n.interval.end, n.id) for n in nodes]


def test_nodes_at_level_ordered_after_out_of_order_inserts():
    tree = MemoryTree()
    rng = random.Random(5)
    minutes = list(range(40)) + [7, 7, 20]
    rng.shuffle(minutes)
    for i, minute in enumerate(minutes, start=1):
        level = 1 + i % 2
        ts = utc(2023, 5, 1, 10, minute)
        tree.insert_node(node(tree, i, level, ts, ts))
    for level in (Level.SEGMENT, Level.SESSION):
        listed = tree.nodes_at_level("u", level)
        assert end_order(listed) == sorted(end_order(listed))
        assert len(listed) == sum(1 for i in range(1, len(minutes) + 1) if 1 + i % 2 == level)
        assert tree.latest_at_level("u", level) is listed[-1]


def test_nodes_at_level_ordered_after_replay(tmp_path):
    from timem import LogStore, MemoryEngine

    live = MemoryEngine(store=LogStore(tmp_path))
    ingest_all(live, "alice", random_transcript(random.Random(21), "alice"))
    live.store.close()
    replayed = MemoryEngine(store=LogStore(tmp_path))
    replayed.load_user("alice")
    for level in Level:
        want = sorted((n for n in replayed.tree.all_nodes("alice") if n.level == level),
                      key=lambda n: (n.interval.end, n.id))
        assert [n.id for n in replayed.tree.nodes_at_level("alice", level)] == [n.id for n in want]
        assert ([n.id for n in replayed.tree.nodes_at_level("alice", level)]
                == [n.id for n in live.tree.nodes_at_level("alice", level)])


def test_nodes_at_level_returns_a_copy():
    tree = MemoryTree()
    tree.insert_node(node(tree, 1, 1, utc(2023, 5, 1), utc(2023, 5, 1)))
    listed = tree.nodes_at_level("u", Level.SEGMENT)
    listed.clear()
    assert [n.id for n in tree.nodes_at_level("u", Level.SEGMENT)] == [1]


def test_leaf_inserted_out_of_order_is_scored():
    from timem.backends import MockEmbedder
    from timem.indexing import fused_top_k

    embedder = MockEmbedder(32)
    tree = MemoryTree()

    def segment(node_id, minute, text):
        ts = utc(2023, 5, 1, 10, minute)
        tree.insert_node(MemoryNode(id=node_id, user_id="u", level=Level.SEGMENT,
                                    interval=TemporalInterval(ts, ts), text=text,
                                    embedding=embedder.embed_text(text)))

    for i in range(1, 6):
        segment(i, 10 * i, f"walk in the park number {i}")
    query = embedder.embed_text("kayak on the lake")
    assert len(tree.leaf_index("u")) == 5  # caught up before the late insert
    segment(6, 15, "kayak on the lake")    # ends before four leaves already indexed

    index = tree.leaf_index("u")
    assert list(index.stamps[:len(index)]) == [
        n.interval.end.timestamp() for n in tree.nodes_at_level("u", Level.SEGMENT)]
    got = fused_top_k(query, ["kayak"], index, 0.9, 6)
    assert got[0].node_id == 6
    assert got == fused_top_k(query, ["kayak"], tree.nodes_at_level("u", Level.SEGMENT), 0.9, 6)
    assert [s.node_id for s in fused_top_k(query, ["kayak"], index.upto(utc(2023, 5, 1, 10, 15)),
                                           0.9, 6)] == [6, 1]


def test_leaf_embedding_is_a_view_of_its_block(engine):
    ingest_all(engine, "alice", random_transcript(random.Random(8), "alice", n_sessions=3))
    segments = engine.tree.nodes_at_level("alice", Level.SEGMENT)
    index = engine.tree.leaf_index("alice")
    assert len(index.blocks) > 1
    for row, leaf in enumerate(segments):
        block = index.blocks[row // index.block_rows]
        assert np.shares_memory(leaf.embedding, block)  # no second copy of the embedding
        assert leaf.embedding.base is block
