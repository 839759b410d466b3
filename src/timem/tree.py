"""Five-level temporal memory tree.

Nodes live on levels Segment(1) < Session(2) < Day(3) < Week(4) <
Profile(5). Every parent-child edge must step exactly one level and the
parent's time interval must cover the child's. Each user owns a fully
isolated tree; node ids are monotonically increasing per user.

Besides the nodes by id, a tree keeps two indexes per user:

- one list per level in (interval end, id) order. An insert appends
  when the node sorts last (every insert of the benchmark workloads
  does) and `bisect.insort`s it otherwise, so listing a level copies a
  list, and the latest node of a level is its last element.
- a `LeafIndex` of the segments, the columns recall scores: float32
  embedding rows in fixed-size blocks, and flat arrays of norms, end
  times and ids grown by doubling. Recall screens every row with a
  float32 product and runs the exact float64 one only on the leaves
  that can reach the top k. The index is not kept up at insert time:
  `leaf_index` catches up with the segments inserted since its last
  call, so ingest and replay never pay for it. Each segment's
  `embedding` then is a view of its float32 row in one of the index's
  blocks, not a second copy. A segment inserted before the end of its
  level's order drops the index, and the next call rebuilds it.

A user's tree can be dropped (`drop_user`) when it may have diverged
from its log, after a failed append; a replay rebuilds it.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, field
from datetime import datetime
from enum import IntEnum

import numpy as np

from .errors import (
    ContainmentViolation,
    DuplicateId,
    LevelEdgeViolation,
    MissingParent,
    UnknownNode,
)
from .indexing import LeafIndex


class Level(IntEnum):
    SEGMENT = 1
    SESSION = 2
    DAY = 3
    WEEK = 4
    PROFILE = 5


@dataclass(frozen=True)
class TemporalInterval:
    start: datetime
    end: datetime

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"interval start {self.start} after end {self.end}")

    def contains(self, other: "TemporalInterval") -> bool:
        return self.start <= other.start and other.end <= self.end


def interval_hull(intervals: list[TemporalInterval]) -> TemporalInterval:
    if not intervals:
        raise ValueError("hull of empty interval list")
    return TemporalInterval(
        min(iv.start for iv in intervals), max(iv.end for iv in intervals)
    )


@dataclass
class MemoryNode:
    id: int
    user_id: str
    level: Level
    interval: TemporalInterval
    text: str
    embedding: np.ndarray | None = None
    parent_id: int | None = None
    child_ids: list[int] = field(default_factory=list)
    source_turn_ids: list[str] = field(default_factory=list)


@dataclass
class Violation:
    node_id: int
    rule: str
    detail: str


@dataclass
class TreeReport:
    node_count_per_level: dict[Level, int]
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations


_EMBED_NORM_TOL = 1e-6


def _end_order(node: MemoryNode) -> tuple:
    return node.interval.end, node.id


class MemoryTree:
    """Per-user node store enforcing the structural rules on every edge.

    A tree holds no lock: one user's calls must not overlap, which
    `MemoryEngine` ensures by holding a per-user lock around each call.
    """

    def __init__(self):
        self._nodes: dict[str, dict[int, MemoryNode]] = {}
        self._next_id: dict[str, int] = {}
        # user -> level -> nodes in (interval end, id) order
        self._levels: dict[str, dict[Level, list[MemoryNode]]] = {}
        self._leaves: dict[str, LeafIndex] = {}  # user -> caught up by leaf_index

    def ensure_user(self, user_id: str) -> None:
        """Register a user namespace (idempotent)."""
        if user_id not in self._nodes:
            self._next_id[user_id] = 1
            self._levels[user_id] = {level: [] for level in Level}
            self._nodes[user_id] = {}

    def drop_user(self, user_id: str) -> None:
        """Forget a user's nodes and indexes; a replay can rebuild them."""
        for table in (self._nodes, self._next_id, self._levels, self._leaves):
            table.pop(user_id, None)

    def users(self) -> list[str]:
        return sorted(self._nodes)

    def has_user(self, user_id: str) -> bool:
        return user_id in self._nodes

    def allocate_id(self, user_id: str) -> int:
        self.ensure_user(user_id)
        node_id = self._next_id[user_id]
        self._next_id[user_id] = node_id + 1
        return node_id

    def get(self, user_id: str, node_id: int) -> MemoryNode:
        node = self._nodes.get(user_id, {}).get(node_id)
        if node is None:
            raise UnknownNode(f"user {user_id!r} has no node {node_id}")
        return node

    def insert_node(self, node: MemoryNode) -> int:
        self.ensure_user(node.user_id)
        nodes = self._nodes[node.user_id]
        if node.id in nodes:
            raise DuplicateId(f"node id {node.id} already used for {node.user_id!r}")
        if node.embedding is not None:
            norm = float(np.linalg.norm(node.embedding))
            if not abs(norm - 1.0) <= _EMBED_NORM_TOL:  # a NaN norm fails too
                raise ValueError(f"embedding norm {norm} not within {_EMBED_NORM_TOL} of 1")
        parent = None
        if node.parent_id is not None:
            parent = nodes.get(node.parent_id)
            if parent is None:
                raise MissingParent(f"parent {node.parent_id} not found")
            self._check_edge(parent, node)
        nodes[node.id] = node
        self._add_to_level(node)
        if parent is not None and node.id not in parent.child_ids:
            parent.child_ids.append(node.id)
            self._sort_children(node.user_id, parent)
        if node.id >= self._next_id[node.user_id]:
            self._next_id[node.user_id] = node.id + 1
        return node.id

    def adopt(self, user_id: str, parent_id: int, child_ids: list[int]) -> None:
        """Link existing nodes under a parent, validating each edge."""
        parent = self.get(user_id, parent_id)
        for cid in child_ids:
            child = self.get(user_id, cid)
            self._check_edge(parent, child)
            child.parent_id = parent_id
            if cid not in parent.child_ids:
                parent.child_ids.append(cid)
        self._sort_children(user_id, parent)

    @staticmethod
    def _check_edge(parent: MemoryNode, child: MemoryNode) -> None:
        if parent.level != child.level + 1:
            raise LevelEdgeViolation(
                f"parent level {int(parent.level)} over child level {int(child.level)}"
            )
        if not parent.interval.contains(child.interval):
            raise ContainmentViolation(
                f"child [{child.interval.start}, {child.interval.end}] outside "
                f"parent [{parent.interval.start}, {parent.interval.end}]"
            )

    def _add_to_level(self, node: MemoryNode) -> None:
        ordered = self._levels[node.user_id][node.level]
        if not ordered or _end_order(ordered[-1]) < _end_order(node):
            ordered.append(node)
            return
        insort(ordered, node, key=_end_order)
        if node.level == Level.SEGMENT:
            self._leaves.pop(node.user_id, None)

    def _sort_children(self, user_id: str, parent: MemoryNode) -> None:
        nodes = self._nodes[user_id]
        parent.child_ids.sort(key=lambda cid: (nodes[cid].interval.start, cid))

    def _ordered(self, user_id: str, level: Level) -> list[MemoryNode]:
        levels = self._levels.get(user_id)
        return levels[level] if levels else []

    def nodes_at_level(self, user_id: str, level: Level) -> list[MemoryNode]:
        """A copy of the nodes of one level, ordered by interval end (ties by id)."""
        return list(self._ordered(user_id, level))

    def recent_at_level(self, user_id: str, level: Level, count: int) -> list[MemoryNode]:
        """Up to `count` nodes of a level, the latest (end, id) first."""
        ordered = self._ordered(user_id, level)
        return ordered[max(len(ordered) - count, 0):][::-1]

    def leaf_index(self, user_id: str) -> LeafIndex:
        """The user's segments in (end, id) order as a LeafIndex, after
        adding the segments inserted since the last call."""
        index = self._leaves.get(user_id)
        if index is None:
            index = self._leaves[user_id] = LeafIndex()
        for node in self._ordered(user_id, Level.SEGMENT)[len(index):]:
            node.embedding = index.add(node)
        return index

    def all_nodes(self, user_id: str) -> list[MemoryNode]:
        return sorted(self._nodes.get(user_id, {}).values(), key=lambda n: n.id)

    def ancestors(self, user_id: str, node_id: int, levels: set[Level]) -> list[MemoryNode]:
        """Walk the parent chain, returning ancestors at the given levels."""
        node = self.get(user_id, node_id)
        found = []
        current = node
        while current.parent_id is not None:
            current = self.get(user_id, current.parent_id)
            if current.level in levels:
                found.append(current)
        return found

    def latest_at_level(self, user_id: str, level: Level,
                        t_q: datetime | None = None) -> MemoryNode | None:
        """The node of a level with the latest (end, id), among those
        ending at or before `t_q` when it is given."""
        ordered = self._ordered(user_id, level)
        end = len(ordered) if t_q is None else bisect_right(
            ordered, t_q, key=lambda node: node.interval.end)
        return ordered[end - 1] if end else None

    def validate_tree(self, user_id: str) -> TreeReport:
        nodes = self._nodes.get(user_id, {})
        counts = {level: 0 for level in Level}
        violations: list[Violation] = []
        for node in nodes.values():
            counts[node.level] += 1
            if node.parent_id is not None:
                parent = nodes.get(node.parent_id)
                if parent is None:
                    violations.append(Violation(node.id, "missing-parent", f"parent {node.parent_id} absent"))
                    continue
                if parent.level != node.level + 1:
                    violations.append(Violation(
                        node.id, "level-edge",
                        f"parent level {int(parent.level)}, child level {int(node.level)}"))
                if not parent.interval.contains(node.interval):
                    violations.append(Violation(
                        node.id, "temporal-containment",
                        f"child [{node.interval.start}, {node.interval.end}] outside parent "
                        f"[{parent.interval.start}, {parent.interval.end}]"))
        for level in (Level.SESSION, Level.DAY, Level.WEEK, Level.PROFILE):
            below = counts[Level(level - 1)]
            if below > 0 and counts[level] > below:
                violations.append(Violation(
                    0, "progressive-consolidation",
                    f"level {int(level)} has {counts[level]} nodes over {below} at level {int(level) - 1}"))
        return TreeReport(node_count_per_level=counts, violations=violations)
