from __future__ import annotations

import random
from datetime import timedelta

import numpy as np
import pytest

from timem import Level, MemoryNode, MemoryTree, TemporalInterval
from timem.indexing import FIRST_BLOCK_FLOATS
from timem.errors import (
    ContainmentViolation,
    DimensionMismatch,
    DuplicateId,
    LevelEdgeViolation,
    NonMonotonicTimestamp,
    ParentConflict,
    UnknownNode,
    UnknownUser,
)

from conftest import ingest_all, random_transcript, utc


def unit_vec(dim: int = 8, index: int = 0) -> np.ndarray:
    v = np.zeros(dim)
    v[index] = 1.0
    return v


def node(tree: MemoryTree, node_id: int, level: int, start, end, user="u") -> MemoryNode:
    """A node without edges; a segment has an embedding and cites one
    turn, as ingest's do."""
    return MemoryNode(
        id=node_id, user_id=user, level=Level(level),
        interval=TemporalInterval(start, end),
        text=f"node {node_id}", embedding=unit_vec() if level == Level.SEGMENT else None,
        source_turn_ids=[f"s/{node_id}"] if level == Level.SEGMENT else [])


def test_interval_rejects_reversed():
    with pytest.raises(ValueError):
        TemporalInterval(utc(2023, 5, 2), utc(2023, 5, 1))


def insert_all(tree: MemoryTree, *nodes: MemoryNode) -> None:
    for n in nodes:
        tree.insert_node(n)


def test_insert_child_under_parent():
    tree = MemoryTree()
    insert_all(tree, node(tree, 2, 1, utc(2023, 5, 1, 10), utc(2023, 5, 1, 10, 1)),
               node(tree, 1, 2, utc(2023, 5, 1, 10), utc(2023, 5, 1, 11)))
    tree.adopt("u", 1, [2])
    assert tree.get("u", 1).child_ids == [2]
    assert tree.get("u", 2).parent_id == 1
    assert [n.id for n in tree.ancestors("u", 2, set(Level))] == [1]


def test_insert_level_edge_violation():
    tree = MemoryTree()
    insert_all(tree, node(tree, 2, 1, utc(2023, 5, 1, 10), utc(2023, 5, 1, 11)),
               node(tree, 1, 3, utc(2023, 5, 1), utc(2023, 5, 2)))
    with pytest.raises(LevelEdgeViolation):
        tree.adopt("u", 1, [2])


def test_insert_containment_violation():
    tree = MemoryTree()
    insert_all(tree, node(tree, 2, 1, utc(2023, 5, 1, 9), utc(2023, 5, 1, 9, 1)),
               node(tree, 1, 2, utc(2023, 5, 1, 10), utc(2023, 5, 1, 11)))
    with pytest.raises(ContainmentViolation):
        tree.adopt("u", 1, [2])


def test_insert_duplicate_and_missing_parent():
    tree = MemoryTree()
    tree.insert_node(node(tree, 1, 1, utc(2023, 5, 1), utc(2023, 5, 1)))
    with pytest.raises(DuplicateId):
        tree.insert_node(node(tree, 1, 1, utc(2023, 5, 2), utc(2023, 5, 2)))
    with pytest.raises(UnknownNode):
        tree.adopt("u", 99, [1])
    assert tree.get("u", 1).parent_id is None


@pytest.mark.parametrize("edge, value", [("parent_id", 1), ("child_ids", [3])])
def test_insert_rejects_a_node_that_carries_an_edge(edge, value):
    tree = MemoryTree()
    tree.insert_node(node(tree, 1, 2, utc(2023, 5, 1, 10), utc(2023, 5, 1, 11)))
    child = node(tree, 2, 1, utc(2023, 5, 1, 10), utc(2023, 5, 1, 10, 1))
    setattr(child, edge, value)
    with pytest.raises(ValueError, match="adopt"):
        tree.insert_node(child)
    assert tree.all_nodes("u") == [tree.get("u", 1)]
    assert tree.get("u", 1).child_ids == []


@pytest.mark.parametrize("error, bad_level, bad_hour", [
    (LevelEdgeViolation, 2, 10),   # a session under a session
    (ContainmentViolation, 1, 9),  # a segment before its session
])
def test_adopt_is_all_or_nothing(error, bad_level, bad_hour):
    tree = MemoryTree()
    bad = utc(2023, 5, 1, bad_hour)
    insert_all(tree, node(tree, 3, bad_level, bad, bad),
               node(tree, 1, 1, utc(2023, 5, 1, 10), utc(2023, 5, 1, 10)),
               node(tree, 2, 1, utc(2023, 5, 1, 10, 5), utc(2023, 5, 1, 10, 5)),
               node(tree, 4, 2, utc(2023, 5, 1, 10), utc(2023, 5, 1, 11)))
    with pytest.raises(error):
        tree.adopt("u", 4, [1, 2, 3])  # the good children come first
    assert tree.get("u", 4).child_ids == []
    assert [tree.get("u", i).parent_id for i in (1, 2, 3)] == [None, None, None]
    assert tree.validate_tree("u").ok


def test_adopt_refuses_a_child_that_has_another_parent():
    tree = MemoryTree()
    insert_all(tree, node(tree, 1, 1, utc(2023, 5, 1, 10), utc(2023, 5, 1, 10)),
               node(tree, 2, 1, utc(2023, 5, 1, 10, 5), utc(2023, 5, 1, 10, 5)),
               node(tree, 3, 2, utc(2023, 5, 1, 10), utc(2023, 5, 1, 11)),
               node(tree, 4, 2, utc(2023, 5, 1, 10), utc(2023, 5, 1, 11)))
    tree.adopt("u", 3, [1])
    with pytest.raises(ParentConflict, match="node 1 already has parent 3"):
        tree.adopt("u", 4, [2, 1])  # the free child comes first
    assert tree.get("u", 4).child_ids == []
    assert tree.get("u", 2).parent_id is None
    assert tree.get("u", 1).parent_id == 3
    assert [(v.node_id, v.rule) for v in tree.validate_tree("u").violations] == []


def test_adopt_orders_children_by_start_then_id_and_links_a_parent_once():
    tree = MemoryTree()
    insert_all(tree, node(tree, 12, 1, utc(2023, 5, 1, 9), utc(2023, 5, 1, 9)),
               node(tree, 13, 1, utc(2023, 5, 1, 9), utc(2023, 5, 1, 9)),
               node(tree, 11, 1, utc(2023, 5, 1, 11), utc(2023, 5, 1, 11)),
               node(tree, 14, 1, utc(2023, 5, 1, 11, 30), utc(2023, 5, 1, 11, 30)),
               node(tree, 10, 2, utc(2023, 5, 1, 8), utc(2023, 5, 1, 12)))
    tree.adopt("u", 10, [13, 11, 12])
    assert tree.get("u", 10).child_ids == [12, 13, 11]
    with pytest.raises(ParentConflict, match="node 10 already has children"):
        tree.adopt("u", 10, [14])  # a parent gains no child later
    assert tree.get("u", 10).child_ids == [12, 13, 11]
    assert tree.get("u", 14).parent_id is None


def test_adopt_refuses_a_repeated_child_id():
    tree = MemoryTree()
    insert_all(tree, node(tree, 1, 1, utc(2023, 5, 1, 10), utc(2023, 5, 1, 10)),
               node(tree, 2, 1, utc(2023, 5, 1, 10, 5), utc(2023, 5, 1, 10, 5)),
               node(tree, 3, 2, utc(2023, 5, 1, 10), utc(2023, 5, 1, 11)))
    with pytest.raises(ParentConflict, match="child twice"):
        tree.adopt("u", 3, [1, 2, 1])
    assert tree.get("u", 3).child_ids == []
    assert tree.get("u", 1).parent_id is None and tree.get("u", 2).parent_id is None
    assert tree.validate_tree("u").ok


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



def embeddings_near_the_norm_bound() -> list[np.ndarray]:
    """Unit float32 vectors, and their scalings to just inside and just
    outside the 1e-6 tolerance, a zero vector and ones holding NaN or
    inf; a few in float64."""
    rng = np.random.default_rng(19)
    vectors = []
    for dim in (1, 3, 8, 256, 1536):
        for _ in range(8):
            unit = rng.standard_normal(dim)
            unit = (unit / np.linalg.norm(unit)).astype(np.float32)
            for scale in (1.0, 1 + 0.9e-6, 1 - 0.9e-6, 1 + 1.1e-6, 1 - 1.1e-6):
                vectors.append(unit * np.float32(scale))
                vectors.append(unit.astype(np.float64) * scale)
        for value in (0.0, np.nan, np.inf, -np.inf):
            vector = np.zeros(dim, dtype=np.float32)
            vector[-1] = value
            vectors.append(vector)
    return vectors


def test_insert_accepts_exactly_the_embeddings_numpy_norm_accepts():
    for i, vector in enumerate(embeddings_near_the_norm_bound()):
        tree = MemoryTree()
        leaf = node(tree, 1, 1, utc(2023, 5, 1), utc(2023, 5, 1))
        leaf.embedding = vector
        norm = float(np.linalg.norm(vector))
        if abs(norm - 1.0) <= 1e-6:
            tree.insert_node(leaf)
        else:
            with pytest.raises(ValueError, match=f"norm {norm} "):
                tree.insert_node(leaf)
            assert tree.all_nodes("u") == [], i

def test_nodes_at_level_empty_and_sorted():
    tree = MemoryTree()
    tree.ensure_user("u")
    assert tree.nodes_at_level("u", Level.SEGMENT) == []
    for i, minute in [(1, 1), (3, 2), (2, 3)]:
        tree.insert_node(node(tree, i, 1, utc(2023, 5, 1, 10, minute), utc(2023, 5, 1, 10, minute)))
    ends = [n.interval.end.minute for n in tree.nodes_at_level("u", Level.SEGMENT)]
    assert ends == [1, 2, 3]
    assert tree.nodes_at_level("u", Level.PROFILE) == []


def test_ancestors_full_chain():
    tree = MemoryTree()
    for lvl in range(1, 6):
        tree.insert_node(node(tree, lvl, lvl, utc(2023, 5, 1), utc(2023, 6, 1)))
        if lvl > 1:
            tree.adopt("u", lvl, [lvl - 1])
    got = tree.ancestors("u", 1, {Level.SESSION, Level.PROFILE})
    assert [int(n.level) for n in got] == [2, 5]
    assert tree.ancestors("u", 1, set(Level)) == tree.ancestors("u", 1, set(Level))
    assert len(tree.ancestors("u", 1, set(Level))) == 4


def test_ancestors_orphan_and_partial():
    tree = MemoryTree()
    insert_all(tree, node(tree, 1, 1, utc(2023, 5, 1, 10), utc(2023, 5, 1, 10)),
               node(tree, 2, 2, utc(2023, 5, 1, 10), utc(2023, 5, 1, 11)),
               node(tree, 3, 3, utc(2023, 5, 1), utc(2023, 5, 2)),
               node(tree, 9, 1, utc(2023, 5, 2), utc(2023, 5, 2)))
    tree.adopt("u", 2, [1])
    tree.adopt("u", 3, [2])
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


@pytest.mark.parametrize("rule, mutate", [
    ("missing-parent", lambda seg: setattr(seg, "parent_id", 404)),
    ("level-edge", lambda seg: setattr(seg, "level", Level.DAY)),
    ("temporal-containment", lambda seg: setattr(
        seg, "interval", TemporalInterval(utc(2023, 5, 1, 9), utc(2023, 5, 1, 9)))),
])
def test_validate_flags_an_edge_broken_behind_the_trees_back(rule, mutate):
    tree = MemoryTree()
    insert_all(tree, node(tree, 2, 1, utc(2023, 5, 1, 10), utc(2023, 5, 1, 10, 1)),
               node(tree, 3, 1, utc(2023, 5, 1, 10, 30), utc(2023, 5, 1, 10, 31)),
               node(tree, 1, 2, utc(2023, 5, 1, 10), utc(2023, 5, 1, 11)))
    tree.adopt("u", 1, [2, 3])
    assert tree.validate_tree("u").ok
    mutate(tree.get("u", 3))
    # a child that names a missing parent leaves its parent listing it in vain
    also = [(1, "child-list")] if rule == "missing-parent" else []
    assert [(v.node_id, v.rule) for v in tree.validate_tree("u").violations] == [(3, rule), *also]


def two_sessions() -> MemoryTree:
    """Segments 2 and 3 under session 1, segment 5 under session 4."""
    tree = MemoryTree()
    insert_all(tree, node(tree, 2, 1, utc(2023, 5, 1, 10), utc(2023, 5, 1, 10, 1)),
               node(tree, 3, 1, utc(2023, 5, 1, 10, 30), utc(2023, 5, 1, 10, 31)),
               node(tree, 1, 2, utc(2023, 5, 1, 10), utc(2023, 5, 1, 11)),
               node(tree, 5, 1, utc(2023, 5, 1, 12), utc(2023, 5, 1, 12)),
               node(tree, 4, 2, utc(2023, 5, 1, 12), utc(2023, 5, 1, 13)))
    tree.adopt("u", 1, [2, 3])
    tree.adopt("u", 4, [5])
    return tree


@pytest.mark.parametrize("mutate, violation", [
    (lambda t: t.get("u", 1).child_ids.append(404), (1, "child-list", "child 404 not found")),
    (lambda t: t.get("u", 1).child_ids.append(5), (1, "child-list", "child 5 names parent 4")),
    (lambda t: t.get("u", 1).child_ids.append(2), (1, "child-list", "child 2 is listed twice")),
    (lambda t: t.get("u", 1).child_ids.remove(3),
     (3, "unlisted-child", "parent 1 does not list it")),
    (lambda t: t.get("u", 3).source_turn_ids.clear(),
     (3, "segment-source", "the segment cites no turn")),
], ids=["child-not-found", "child-of-another-parent", "child-listed-twice", "unlisted-child",
        "segment-without-turn"])
def test_validate_checks_each_edge_from_both_ends_and_each_segments_turns(mutate, violation):
    tree = two_sessions()
    assert tree.validate_tree("u").ok
    mutate(tree)
    assert [(v.node_id, v.rule, v.detail) for v in tree.validate_tree("u").violations] == [
        violation]


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


@pytest.mark.parametrize("level", [Level.SEGMENT, Level.SESSION], ids=["segment", "session"])
@pytest.mark.parametrize("minute, node_id", [(15, 90), (40, 3)], ids=["earlier-end", "same-end-lower-id"])
def test_out_of_order_insert_raises_and_leaves_the_level_unchanged(level, minute, node_id):
    tree = MemoryTree()
    for i, m in enumerate([10, 20, 20, 30, 40], start=1):
        ts = utc(2023, 5, 1, 10, m)
        tree.insert_node(node(tree, i + 5, level, ts, ts))
    before = tree.nodes_at_level("u", level)
    ts = utc(2023, 5, 1, 10, minute)
    with pytest.raises(NonMonotonicTimestamp, match="sorts before node 10, the last of level"):
        tree.insert_node(node(tree, node_id, level, ts, ts))
    assert tree.nodes_at_level("u", level) == before
    assert tree.latest_at_level("u", level) is before[-1]
    with pytest.raises(UnknownNode):
        tree.get("u", node_id)
    assert tree.allocate_id("u") == 11


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


def test_out_of_order_leaf_leaves_the_caught_up_index_unchanged():
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
    query = embedder.embed_text("walk in the park")
    index = tree.leaf_index("u")
    assert len(index) == 5
    scored = fused_top_k(query, ["park"], index, 0.9, 5)
    with pytest.raises(NonMonotonicTimestamp):
        segment(6, 15, "kayak on the lake")  # ends before four leaves already indexed

    assert tree.leaf_index("u") is index  # kept, not dropped for a rebuild
    assert list(index.ids[:len(index)]) == [1, 2, 3, 4, 5]
    assert list(index.stamps[:len(index)]) == [
        n.interval.end.timestamp() for n in tree.nodes_at_level("u", Level.SEGMENT)]
    assert fused_top_k(query, ["park"], index, 0.9, 5) == scored
    segment(6, 55, "kayak on the lake")  # one that sorts last is still appended
    assert list(tree.leaf_index("u").ids[:6]) == [1, 2, 3, 4, 5, 6]


def test_leaf_embedding_is_a_view_of_its_row(engine):
    ingest_all(engine, "alice", random_transcript(random.Random(8), "alice", n_sessions=3))
    segments = engine.tree.nodes_at_level("alice", Level.SEGMENT)
    index = engine.tree.leaf_index("alice")
    assert len(segments) > 1
    for position, leaf in enumerate(segments):
        assert any(leaf.embedding.base is block for block in index.blocks)  # no second copy
        assert np.shares_memory(leaf.embedding, index.row(position))


WIDE = FIRST_BLOCK_FLOATS  # so wide a row that the blocks of leaf rows double from one row


def embedded_segment(node_id: int, dimension: int = 32) -> MemoryNode:
    from timem.backends import MockEmbedder

    ts = utc(2023, 5, 1, 10, 0) + timedelta(minutes=node_id)
    text = f"walk number {node_id} in the park"
    return MemoryNode(id=node_id, user_id="u", level=Level.SEGMENT,
                      interval=TemporalInterval(ts, ts), text=text,
                      embedding=MockEmbedder(dimension).embed_text(text))


def test_a_catch_up_across_growths_points_every_segment_at_the_current_matrix():
    """Segments inserted live while the leaves grow by several blocks
    between two catch-ups: each keeps the vector it was inserted with,
    in the row it was inserted into, and a recall scores every one."""
    from timem.indexing import fused_top_k

    tree = MemoryTree()
    inserted, addresses = {}, {}
    for node_id in range(1, 41):
        leaf = embedded_segment(node_id, WIDE)
        inserted[node_id] = leaf.embedding.copy()
        tree.insert_node(leaf)
        addresses[node_id] = leaf.embedding.ctypes.data
        if node_id == 3:
            blocks = len(tree.leaf_index("u").blocks)
    index = tree.leaf_index("u")
    assert len(index.blocks) >= blocks + 3  # three growths or more between the catch-ups
    for position, leaf in enumerate(tree.nodes_at_level("u", Level.SEGMENT)):
        assert leaf.embedding.tobytes() == inserted[leaf.id].tobytes()
        assert leaf.embedding.ctypes.data == addresses[leaf.id]  # the row never moved
        assert np.shares_memory(leaf.embedding, index.row(position))
    query = embedded_segment(7, WIDE).embedding
    assert len(fused_top_k(query, ["park"], index, 0.9, 40)) == 40


def test_segments_past_the_reserved_size_grow_the_leaves_at_their_insert():
    """Replay's path: segments inserted into reserved rows, more of them
    than were reserved. The first insert past the reserved rows adds a
    block as large as the rows held, and so on; no catch-up is needed for
    a segment to be its row, and no row moves."""
    tree = MemoryTree()
    tree.ensure_user("u")
    tree.leaf_index("u").reserve(2, WIDE)
    index = tree._users["u"].leaves
    reserved = index.blocks[0]
    inserted, addresses, capacities = {}, {}, []
    for node_id in range(1, 20):
        leaf = embedded_segment(node_id, WIDE)
        inserted[node_id] = leaf.embedding.astype(np.float32)
        tree.insert_node(leaf)
        addresses[node_id] = leaf.embedding.ctypes.data
        capacities.append(index.capacity)
        for position, segment in enumerate(tree.nodes_at_level("u", Level.SEGMENT)):
            assert segment.embedding.ctypes.data == addresses[segment.id]
            assert np.shares_memory(segment.embedding, index.row(position))
    assert index.blocks[0] is reserved and len(reserved) == 2
    assert capacities == [2, 2, 4, 4, *[8] * 4, *[16] * 8, *[32] * 3]
    assert [len(block) for block in index.blocks] == [2, 2, 4, 8, 16]
    assert tree.leaf_index("u") is index and len(index) == 19
    for leaf in tree.nodes_at_level("u", Level.SEGMENT):
        assert leaf.embedding.tobytes() == inserted[leaf.id].tobytes()


def test_every_segment_is_its_row_through_inserts_catch_ups_and_reserves():
    """Inserts, catch-ups and reserves mixed across three growths: after
    each step every segment shares memory with its row, in the place it
    was inserted into, and holds the bytes it was inserted with, and
    recall over the index equals recall over an index of copies."""
    from dataclasses import replace

    from timem.indexing import LeafIndex, fused_top_k

    tree = MemoryTree()
    inserted: dict[int, np.ndarray] = {}
    addresses: dict[int, int] = {}
    query = embedded_segment(7, WIDE).embedding

    def insert(count):
        for node_id in range(len(inserted) + 1, len(inserted) + 1 + count):
            leaf = embedded_segment(node_id, WIDE)
            inserted[node_id] = leaf.embedding.copy()
            tree.insert_node(leaf)
            addresses[node_id] = leaf.embedding.ctypes.data

    def catch_up():
        index = tree.leaf_index("u")
        copies = [replace(leaf, embedding=inserted[leaf.id].copy())
                  for leaf in tree.nodes_at_level("u", Level.SEGMENT)]
        assert (fused_top_k(query, ["park"], index, 0.9, 5)
                == fused_top_k(query, ["park"], LeafIndex.of(copies), 0.9, 5))

    steps = [lambda: insert(3), catch_up, lambda: insert(3),
             lambda: tree._users["u"].leaves.reserve(len(inserted) + 10, WIDE),
             lambda: insert(12), catch_up,
             lambda: insert(5), catch_up]
    for step in steps:
        step()
        index = tree._users["u"].leaves
        for position, leaf in enumerate(tree.nodes_at_level("u", Level.SEGMENT)):
            assert leaf.embedding.tobytes() == inserted[leaf.id].tobytes()
            assert leaf.embedding.ctypes.data == addresses[leaf.id]
            assert np.shares_memory(leaf.embedding, index.row(position))
    assert len(tree._users["u"].leaves.blocks) >= 3
    assert len(tree.leaf_index("u")) == 23


def test_a_catch_up_never_grows_the_leaves():
    """Across inserts, reserves, refused inserts and catch-ups, the
    leaves only grow at an insert or a reserve: `leaf_index` keeps the
    blocks it finds and only adds columns."""
    from dataclasses import replace

    tree = MemoryTree()
    tree.ensure_user("u")
    tree.leaf_index("u").reserve(1, WIDE)
    next_id = 1

    def insert(count):
        nonlocal next_id
        for _ in range(count):
            tree.insert_node(embedded_segment(next_id, WIDE))
            next_id += 1

    def refuse():
        for error, leaf in [(DimensionMismatch, embedded_segment(next_id, dimension=16)),
                            (ValueError, replace(embedded_segment(next_id, WIDE), embedding=None)),
                            (DuplicateId, embedded_segment(next_id - 1, WIDE))]:
            with pytest.raises(error):
                tree.insert_node(leaf)

    steps = [lambda: insert(1), refuse, lambda: insert(2), lambda: insert(5), refuse,
             lambda: tree._users["u"].leaves.reserve(next_id - 1 + 7, WIDE),
             lambda: insert(9), refuse,
             lambda: insert(20)]
    for step in steps:
        step()
        index = tree._users["u"].leaves
        blocks = [id(block) for block in index.blocks]
        assert tree.leaf_index("u") is index
        assert [id(block) for block in index.blocks] == blocks
        assert len(index) == next_id - 1
        tree.leaf_index("u")  # a second call finds nothing to add
        assert [id(block) for block in index.blocks] == blocks


def test_a_refused_insert_leaves_the_matrix_and_every_row_unchanged():
    """Every refusal comes before any change: a duplicate id, a segment
    out of (end, id) order, one with a bad norm, one without an
    embedding and one of another width, and a session that carries a
    vector. The segments without an embedding or of another width would
    leave recall unable to score the user's segments, and the session's
    vector would make its log refuse to replay. Each is refused while the
    leaves have a free row, both before and after a catch-up."""
    from dataclasses import replace

    tree = MemoryTree()
    for node_id in (1, 2, 3):
        tree.insert_node(embedded_segment(node_id, WIDE))
    refused = [
        (DuplicateId, embedded_segment(3, WIDE)),
        (NonMonotonicTimestamp,
         replace(embedded_segment(10, WIDE), interval=embedded_segment(1, WIDE).interval)),
        (ValueError, replace(embedded_segment(4, WIDE), embedding=np.full(WIDE, 0.5, np.float32))),
        (ValueError, replace(embedded_segment(4, WIDE), embedding=None)),
        (DimensionMismatch, embedded_segment(4, dimension=16)),
        (ValueError, replace(embedded_segment(4, WIDE), level=Level.SESSION)),
    ]
    for stage in ("before a catch-up", "after a catch-up"):
        if stage == "after a catch-up":
            tree.leaf_index("u")
        index = tree._users["u"].leaves  # four rows, the last free
        blocks = [id(block) for block in index.blocks]
        held = [block.tobytes() for block in index.blocks]
        segments = tree.nodes_at_level("u", Level.SEGMENT)
        vectors = [leaf.embedding.tobytes() for leaf in segments]
        for error, leaf in refused:
            with pytest.raises(error):
                tree.insert_node(leaf)
            assert tree.nodes_at_level("u", Level.SEGMENT) == segments
            assert [leaf.embedding.tobytes() for leaf in segments] == vectors
            assert [id(block) for block in index.blocks] == blocks and index.capacity == 4
            assert [block.tobytes() for block in index.blocks] == held
            assert not any(np.shares_memory(leaf.embedding, block) for block in index.blocks)
    tree.insert_node(embedded_segment(4, WIDE))
    assert list(tree.leaf_index("u").ids[:4]) == [1, 2, 3, 4]


def test_a_refused_insert_registers_no_user():
    """An insert for a user the tree does not know yet, refused for
    edges, a missing embedding, a vector of another shape, a bad norm or
    a vector above L1, leaves the tree without that user and takes no
    id."""
    from dataclasses import replace

    leaf = embedded_segment(1)
    for error, node in [
        (ValueError, replace(leaf, child_ids=[2])),
        (ValueError, replace(leaf, parent_id=2)),
        (ValueError, replace(leaf, embedding=None)),
        (DimensionMismatch, replace(leaf, embedding=leaf.embedding.reshape(4, 8))),
        (ValueError, replace(leaf, embedding=np.full(32, 0.5, np.float32))),
        (ValueError, replace(leaf, level=Level.SESSION, embedding=2 * leaf.embedding)),
        (ValueError, replace(leaf, level=Level.SESSION)),
    ]:
        tree = MemoryTree()
        with pytest.raises(error):
            tree.insert_node(node)
        assert tree.users() == [] and not tree.has_user("u")
        assert tree.allocate_id("u") == 1
        assert tree.all_nodes("u") == [] and tree.latest_at_level("u", node.level) is None
        with pytest.raises(UnknownUser):
            tree.leaf_index("u")
    tree.insert_node(leaf)
    assert tree.users() == ["u"]


def test_segments_given_another_segments_row_are_indexed_with_their_own_copies():
    """Nodes built with the embedding of an indexed segment, a view of
    that segment's row, each get a row of their own holding it, also
    when the leaves grow while they wait to be indexed."""
    tree = MemoryTree()
    first = embedded_segment(1, WIDE)
    for node in (first, embedded_segment(2, WIDE), embedded_segment(3, WIDE)):
        tree.insert_node(node)
    tree.leaf_index("u")  # four rows, the last unset
    twins = []
    for node_id in range(4, 10):  # two blocks are added on the way
        twin = embedded_segment(node_id, WIDE)
        twin.embedding = first.embedding  # a view of row 0
        tree.insert_node(twin)
        twins.append(twin)
    index = tree.leaf_index("u")
    for twin in twins:
        assert twin.embedding.tobytes() == first.embedding.tobytes()
        assert not np.shares_memory(twin.embedding, first.embedding)
        assert any(twin.embedding.base is block for block in index.blocks)
    assert (index.norms[3:len(index)] == index.norms[0]).all()
