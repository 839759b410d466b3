"""Five-level temporal memory tree.

Nodes live on levels Segment(1) < Session(2) < Day(3) < Week(4) <
Profile(5). Every parent-child edge must step exactly one level and the
parent's time interval must cover the child's. Edges are made bottom-up:
a node is inserted without any, and `adopt` links a parent, consolidated
once its group closed, to all its children at once. Each user owns a
fully isolated tree; node ids are monotonically increasing per user.

A tree keeps one record per user (`_UserTree`): the nodes by id, the
id the next node takes, and two indexes:

- one list per level in (interval end, id) order. Each level is
  append-only, as consolidation writes forward in time: an insert that
  would not sort last raises, so listing a level copies a list, and the
  latest node of a level is its last element.
- a `LeafIndex` of the segments, the columns recall scores: float32
  embedding rows in blocks, and flat arrays of norms, end times and
  ids. Recall screens every row with float32 matrix-vector products and
  runs the exact float64 one only on the leaves that can reach the top
  k. Every segment is its row from its insert on: `insert_node` writes
  it into the next row, adding a block first when the rows are full,
  and its `embedding` is a view of that row. A row never moves: a new
  block holds the rows past the old ones, so growing copies no row and
  frees no memory. Rows grow only through `LeafIndex.reserve`, which
  replay calls with a size hint from the frame headers, and an insert
  for one more row. Norms, stamps and postings wait for `leaf_index`,
  which adds those of the segments inserted since its last call: ingest
  and replay never pay for them, and recall never allocates rows.

A user exists from `ensure_user` (replay) or its first accepted
`insert_node`, from nothing else: a refused insert leaves no user and
uses up no id. An unknown user's reads find no nodes; its `leaf_index`
raises `UnknownUser`.

A user's tree can be dropped (`drop_user`) when it may have diverged
from its log, after a failed append; a replay rebuilds it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import datetime
from enum import IntEnum
from functools import cached_property

import numpy as np

from .errors import (
    ContainmentViolation,
    DimensionMismatch,
    DuplicateId,
    LevelEdgeViolation,
    NonMonotonicTimestamp,
    ParentConflict,
    UnknownNode,
    UnknownUser,
)
from .indexing import LeafIndex
from .timeutil import format_ts


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

    @cached_property
    def text(self) -> str:
        """The text "<start> to <end>", formatted on first use only: the
        interval is frozen, so the text never goes stale, and the
        intervals that ingest builds but nothing reads never pay for it."""
        return f"{format_ts(self.start)} to {format_ts(self.end)}"


def interval_hull(intervals: list[TemporalInterval]) -> TemporalInterval:
    if not intervals:
        raise ValueError("hull of empty interval list")
    return TemporalInterval(
        min(iv.start for iv in intervals), max(iv.end for iv in intervals)
    )


@dataclass
class MemoryNode:
    """One memory of a user's tree. `embedding` is a segment's unit-norm
    vector, which recall scores, and None on every level above: recall
    reaches those nodes by an edge, never by similarity."""

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

_EDGE_ERRORS = {"level-edge": LevelEdgeViolation, "temporal-containment": ContainmentViolation}


def _broken_edge(parent: MemoryNode | None, child: MemoryNode) -> Violation | None:
    """The first rule the edge from `parent` (None when it is absent) to
    `child` breaks, or None when the edge is sound."""
    if parent is None:
        return Violation(child.id, "missing-parent", f"parent {child.parent_id} not found")
    if parent.level != child.level + 1:
        return Violation(child.id, "level-edge",
                         f"parent level {int(parent.level)} over child level {int(child.level)}")
    if not parent.interval.contains(child.interval):
        return Violation(child.id, "temporal-containment",
                         f"child [{child.interval.start}, {child.interval.end}] outside "
                         f"parent [{parent.interval.start}, {parent.interval.end}]")
    return None


@dataclass
class _UserTree:
    """One user's record: nodes by id, levels, leaves and next id."""

    nodes: dict[int, MemoryNode] = field(default_factory=dict)
    levels: dict[Level, list[MemoryNode]] = field(default_factory=lambda: {lv: [] for lv in Level})
    leaves: LeafIndex = field(default_factory=LeafIndex)  # caught up by leaf_index
    next_id: int = 1


_NO_USER = _UserTree()  # what reads of an unknown user see; nothing writes it


class MemoryTree:
    """Per-user node store enforcing the structural rules on every edge.

    A tree holds no lock: one user's calls must not overlap, which
    `MemoryEngine` ensures by holding a per-user lock around each call.
    """

    def __init__(self):
        self._users: dict[str, _UserTree] = {}

    def ensure_user(self, user_id: str) -> None:
        """Register a user namespace (idempotent)."""
        self._users.setdefault(user_id, _UserTree())

    def drop_user(self, user_id: str) -> None:
        """Forget a user's nodes and indexes; a replay can rebuild them."""
        self._users.pop(user_id, None)

    def users(self) -> list[str]:
        return sorted(self._users)

    def has_user(self, user_id: str) -> bool:
        return user_id in self._users

    def allocate_id(self, user_id: str) -> int:
        """The id the user's next node takes; only its insert takes it."""
        return self._users.get(user_id, _NO_USER).next_id

    def get(self, user_id: str, node_id: int) -> MemoryNode:
        node = self._users.get(user_id, _NO_USER).nodes.get(node_id)
        if node is None:
            raise UnknownNode(f"user {user_id!r} has no node {node_id}")
        return node

    def insert_node(self, node: MemoryNode) -> int:
        """Index a node that has no edge yet; `adopt` links it later. The
        node must sort last on its level by (interval end, id), a segment
        needs a unit embedding as wide as the user's leaf rows, and a node
        above L1 none, or the insert raises and changes nothing, not even
        the users the tree knows. A segment is written into the next row
        of the user's leaves, which `LeafIndex.reserve` grows first when
        they are full, and its `embedding` becomes that row."""
        if node.parent_id is not None or node.child_ids:
            raise ValueError(f"node {node.id} arrives with edges; link it with adopt")
        user = self._users.get(node.user_id, _NO_USER)
        if node.id in user.nodes:
            raise DuplicateId(f"node id {node.id} already used for {node.user_id!r}")
        vector = node.embedding
        ordered = user.levels[node.level]
        if node.level is Level.SEGMENT:
            if vector is None:
                raise ValueError(f"segment {node.id} has no embedding to score")
            width = user.leaves.dimension or vector.size
            if vector.shape != (width,):
                raise DimensionMismatch(f"segment {node.id} has embedding shape "
                                        f"{vector.shape}, the user's segments ({width},)")
            # np.linalg.norm of a 1-D vector, without its dispatch: the
            # same float, float32 for a float32 vector
            norm = float(np.sqrt(vector.dot(vector)))
            if not abs(norm - 1.0) <= _EMBED_NORM_TOL:  # a NaN norm fails too
                raise ValueError(f"embedding norm {norm} not within {_EMBED_NORM_TOL} of 1")
        elif vector is not None:
            raise ValueError(f"node {node.id} of level {int(node.level)} carries an embedding; "
                             f"only segments keep one")
        if ordered and (node.interval.end, node.id) < (ordered[-1].interval.end, ordered[-1].id):
            raise NonMonotonicTimestamp(f"node {node.id} sorts before node {ordered[-1].id}, "
                                        f"the last of level {int(node.level)} by (end, id)")
        if user is _NO_USER:
            user = self._users[node.user_id] = _UserTree()
            ordered = user.levels[node.level]
        if node.level is Level.SEGMENT:
            user.leaves.reserve(len(ordered) + 1, width)
            node.embedding = user.leaves.row(len(ordered))
            node.embedding[:] = vector
        user.nodes[node.id] = node
        ordered.append(node)
        user.next_id = max(user.next_id, node.id + 1)
        return node.id

    def adopt(self, user_id: str, parent_id: int, child_ids: list[int]) -> None:
        """Link a parent to all its children, once and all or nothing:
        every edge is checked before any is linked. A parent that has
        children, a repeated child id and a child that has a parent raise
        `ParentConflict`. `child_ids` ends in (interval start, id) order."""
        parent = self.get(user_id, parent_id)
        if parent.child_ids:
            raise ParentConflict(f"node {parent_id} already has children {parent.child_ids}")
        if len(set(child_ids)) < len(child_ids):
            raise ParentConflict(f"node {parent_id} is given a child twice in {child_ids}")
        children = sorted((self.get(user_id, cid) for cid in child_ids),
                          key=lambda child: (child.interval.start, child.id))
        for child in children:
            if child.parent_id is not None:
                raise ParentConflict(f"node {child.id} already has parent {child.parent_id}")
            if broken := _broken_edge(parent, child):
                raise _EDGE_ERRORS[broken.rule](broken.detail)
        for child in children:
            child.parent_id = parent_id
        parent.child_ids = [child.id for child in children]

    def nodes_at_level(self, user_id: str, level: Level) -> list[MemoryNode]:
        """A copy of the nodes of one level, ordered by interval end (ties by id)."""
        return list(self._users.get(user_id, _NO_USER).levels[level])

    def recent_at_level(self, user_id: str, level: Level, count: int) -> list[MemoryNode]:
        """Up to `count` nodes of a level, the latest (end, id) first."""
        ordered = self._users.get(user_id, _NO_USER).levels[level]
        return ordered[max(len(ordered) - count, 0):][::-1]

    def leaf_index(self, user_id: str) -> LeafIndex:
        """The user's segments in (end, id) order as a LeafIndex, after
        adding the columns of the segments inserted since the last call;
        their rows are already written. An unknown user raises
        `UnknownUser`."""
        user = self._users.get(user_id)
        if user is None:
            raise UnknownUser(f"no memory tree for user {user_id!r}")
        index = user.leaves
        for node in user.levels[Level.SEGMENT][len(index):]:
            index.add(node)
        return index

    def all_nodes(self, user_id: str) -> list[MemoryNode]:
        return sorted(self._users.get(user_id, _NO_USER).nodes.values(), key=lambda n: n.id)

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
                        max_id: int | None = None) -> MemoryNode | None:
        """The node of a level with the latest (end, id), among those
        whose id is at most `max_id` when it is given. Ids are handed out
        in call order and each level is appended in (end, id) order, so
        its ids ascend and one bisect finds the bound."""
        ordered = self._users.get(user_id, _NO_USER).levels[level]
        end = len(ordered) if max_id is None else bisect_right(
            ordered, max_id, key=lambda node: node.id)
        return ordered[end - 1] if end else None

    def validate_tree(self, user_id: str) -> TreeReport:
        """Check every rule of the user's tree: each edge from both ends,
        each segment's turns, and the node count per level."""
        nodes = self._users.get(user_id, _NO_USER).nodes
        counts = {level: 0 for level in Level}
        violations: list[Violation] = []
        for node in nodes.values():
            counts[node.level] += 1
            if node.parent_id is not None:
                parent = nodes.get(node.parent_id)
                if broken := _broken_edge(parent, node):
                    violations.append(broken)
                elif node.id not in parent.child_ids:
                    violations.append(Violation(node.id, "unlisted-child",
                                                f"parent {parent.id} does not list it"))
            listed: set[int] = set()
            for child_id in node.child_ids:
                child = nodes.get(child_id)
                problem = ("is listed twice" if child_id in listed
                           else "not found" if child is None
                           else f"names parent {child.parent_id}" if child.parent_id != node.id
                           else None)
                listed.add(child_id)
                if problem:
                    violations.append(Violation(node.id, "child-list", f"child {child_id} {problem}"))
            if node.level is Level.SEGMENT and not node.source_turn_ids:
                violations.append(Violation(node.id, "segment-source", "the segment cites no turn"))
        for level in (Level.SESSION, Level.DAY, Level.WEEK, Level.PROFILE):
            below = counts[Level(level - 1)]
            if below > 0 and counts[level] > below:
                violations.append(Violation(
                    0, "progressive-consolidation",
                    f"level {int(level)} has {counts[level]} nodes over {below} at level {int(level) - 1}"))
        return TreeReport(node_count_per_level=counts, violations=violations)
